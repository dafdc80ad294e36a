package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/obs"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// statsRun performs the in-process equivalent of
//
//	sassi -workload demo.vecadd -tool branch -gpu mini -stats-json -
//
// and returns the serialized stats bytes.
func statsRun(t *testing.T) []byte {
	t.Helper()
	spec, ok := workloads.Get("demo.vecadd")
	if !ok {
		t.Fatal("demo.vecadd not registered")
	}
	reg := obs.NewRegistry()
	ctx := cuda.NewContext(sim.MiniGPU())
	ctx.Device().Metrics = reg

	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p := handlers.NewBranchProfiler(ctx)
	opts := p.Options()
	opts.Metrics = reg
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatalf("instrument: %v", err)
	}
	rt := sassi.NewRuntime(prog)
	rt.Metrics = reg
	rt.MustRegister(p.Handler())
	rt.Attach(ctx.Device())

	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("verification: %v", res.VerifyErr)
	}
	s := runStats(reg, ctx, "demo.vecadd", spec.DefaultDataset(), "mini", "branch", true)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("write stats: %v", err)
	}
	return buf.Bytes()
}

// TestStatsJSONGolden pins the -stats-json byte format — field order, sorted
// metric keys, and the metric values of a fixed deterministic run — against
// testdata/stats_golden.json. Regenerate with `go test ./cmd/sassi -update`
// after an intentional schema change (and bump obs.StatsSchema).
func TestStatsJSONGolden(t *testing.T) {
	got := statsRun(t)
	golden := filepath.Join("testdata", "stats_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stats JSON differs from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestStatsJSONDeterministic asserts two identical runs serialize to
// identical bytes — the property the golden file depends on.
func TestStatsJSONDeterministic(t *testing.T) {
	a := statsRun(t)
	b := statsRun(t)
	if !bytes.Equal(a, b) {
		t.Errorf("two identical runs produced different stats bytes\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestStatsJSONShape decodes the golden run output and checks the invariants
// scripts rely on: schema tag, top-level key order, and presence of the core
// metric families.
func TestStatsJSONShape(t *testing.T) {
	raw := statsRun(t)
	var s obs.Stats
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if s.Schema != obs.StatsSchema {
		t.Errorf("schema = %q, want %q", s.Schema, obs.StatsSchema)
	}
	if !s.Verified || s.Launches == 0 || s.WarpInstrs == 0 || s.HandlerCalls == 0 {
		t.Errorf("core counters missing: %+v", s)
	}
	for _, name := range []string{
		obs.MSimWarpInstrs,
		obs.MSimWarpInstrs + ".sm0",
		obs.MSassiSites,
		obs.MSassiInjectedInstrs,
		obs.MSassiSaveRestoreInstrs,
		obs.MHandlerDispatchPrefix + "sassi_branch_handler",
	} {
		if _, ok := s.Metrics[name]; !ok {
			t.Errorf("metrics missing %q", name)
		}
	}
	// Raw key order must be sorted: decode into a raw message keyed walk.
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["metrics"]; !ok {
		t.Error("missing metrics object")
	}
}
