package workloads_test

import (
	"reflect"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/ptxas"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
	"sassi/internal/workloads"
)

// collectStats runs a workload and returns the KernelStats of every launch,
// in launch order.
func collectStats(t *testing.T, name, dataset string, cfg sim.Config, ref bool) []sim.KernelStats {
	t.Helper()
	spec, ok := workloads.Get(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(cfg)
	if ref {
		simref.Install(ctx.Device())
	}
	var all []sim.KernelStats
	ctx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
			if err != nil {
				t.Errorf("launch %d (%s): %v", idx, kernel, err)
				return
			}
			all = append(all, *stats)
		},
	})
	res, err := spec.Run(ctx, prog, dataset)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	return all
}

// TestParallelSMsBitEqualStats is the workload-level determinism contract on
// a divergent graph workload: rodinia.bfs (level-synchronous, no cross-CTA
// data races) must produce per-launch KernelStats bit-equal between the
// concurrent-SM engine and the sequential escape hatch, across device
// models and across repeated parallel runs.
func TestParallelSMsBitEqualStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  sim.Config
	}{
		{"mini", sim.MiniGPU()},
		{"k10", sim.KeplerK10()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.cfg
			seq.SequentialSMs = true
			want := collectStats(t, "rodinia.bfs", "default", seq, false)
			if len(want) < 2 {
				t.Fatalf("bfs launched %d kernels, expected its two-kernel level loop", len(want))
			}
			par := tc.cfg
			par.SequentialSMs = false
			for i := 0; i < 2; i++ {
				got := collectStats(t, "rodinia.bfs", "default", par, false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parallel run %d stats diverge from sequential:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}
