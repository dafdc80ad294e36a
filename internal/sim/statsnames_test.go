package sim

// The KernelStats observability audit: every counter KernelStats carries
// must be exported through both the sassi-stats JSON metrics map (the
// flattened registry) and the Prometheus endpoint, and KernelStatsMetrics
// must be kept in lockstep with the struct. Adding a KernelStats field
// without deciding its mapping fails TestKernelStatsMetricsComplete;
// mapping it to a metric publishMetrics never publishes fails
// TestKernelStatsMetricsLive.

import (
	"reflect"
	"strings"
	"testing"

	"sassi/internal/obs"
)

// TestKernelStatsMetricsComplete checks the mapping and the struct agree
// field-for-field, in both directions.
func TestKernelStatsMetricsComplete(t *testing.T) {
	m := KernelStatsMetrics()
	typ := reflect.TypeOf(KernelStats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := m[name]; !ok {
			t.Errorf("KernelStats.%s has no KernelStatsMetrics entry: map it to an obs metric name, or to \"\" with a reason", name)
		}
	}
	for name := range m {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("KernelStatsMetrics maps %q, which is not a KernelStats field", name)
		}
	}
}

// TestKernelStatsMetricsLive launches a kernel against a live registry and
// checks every mapped metric actually materializes in the flattened
// registry (the stats-JSON shape) and the Prometheus rendering.
func TestKernelStatsMetricsLive(t *testing.T) {
	prog := sampKernel(t)
	dev := NewDevice(MiniGPU())
	reg := obs.NewRegistry()
	dev.Metrics = reg
	buf := dev.Alloc(4 * 64)
	if _, err := dev.Launch(prog, "gid", LaunchParams{
		Grid: D1(2), Block: D1(32), Args: []uint64{buf},
	}); err != nil {
		t.Fatal(err)
	}
	flat := reg.Flat("sm")
	var prom strings.Builder
	obs.WritePrometheus(&prom, reg)
	promText := prom.String()
	for field, metric := range KernelStatsMetrics() {
		if metric == "" {
			continue
		}
		if _, ok := flat[metric]; !ok {
			t.Errorf("KernelStats.%s maps to %q, which the launch never published to the registry", field, metric)
		}
		promID := strings.ReplaceAll(metric, ".", "_")
		if !strings.Contains(promText, promID) {
			t.Errorf("KernelStats.%s metric %q (%s) missing from the Prometheus rendering", field, metric, promID)
		}
	}
}

// KernelStatsMetrics maps every KernelStats field to the canonical obs
// metric name publishMetrics exports it under, or "" for fields that are
// identity/geometry rather than counters. The audit test in
// statsnames_test.go fails the build when a KernelStats field is added
// without deciding its observability story — the contract that every
// counter the simulator grows shows up in both the sassi-stats JSON
// metrics map and the Prometheus endpoint.
func KernelStatsMetrics() map[string]string {
	return map[string]string{
		"Kernel": "", // identity, not a counter

		"WarpInstrs":           obs.MSimWarpInstrs,
		"ThreadInstrs":         obs.MSimThreadInstrs,
		"InjectedWarpInstrs":   obs.MSimInjectedWarpInstrs,
		"InjectedThreadInstrs": obs.MSimInjectedThreadInstrs,
		"HandlerCalls":         obs.MSimHandlerCalls,
		"MaxWarpInstrs":        obs.MSimMaxWarpInstrs,
		"GlobalTransactions":   obs.MMemGlobalTrans,
		"ScoreboardStalls":     obs.MSimScoreboardStalls,
		"Cycles":               obs.MSimCycles,
		// SMCycles is the per-shard decomposition of the same counter;
		// the sharded registry entry flattens to sim.cycles.sm<i>.
		"SMCycles": obs.MSimCycles,
		"CTAs":     obs.MSimCTAs,
		"Threads":  obs.MSimThreads,
	}
}
