package handlers_test

import (
	"slices"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// branchProfile runs workload with the branch profiler and returns its
// per-branch statistics; with stack, a second pass first sites a handler
// that does nothing before every instruction of the instrumented kernels,
// the branch sites' argument set-up and JCALs included.
func branchProfile(t *testing.T, workload, dataset string, stack bool) []handlers.BranchStats {
	t.Helper()
	spec, ok := workloads.Get(workload)
	if !ok {
		t.Fatalf("workload %s not registered", workload)
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.MiniGPU()
	cfg.SequentialSMs = true
	ctx := cuda.NewContext(cfg)
	p := handlers.NewBranchProfiler(ctx)
	if err := sassi.Instrument(prog, p.Options()); err != nil {
		t.Fatal(err)
	}
	if stack {
		if err := sassi.Instrument(prog, sassi.Options{Where: sassi.BeforeAll, BeforeHandler: "stacked_noop"}); err != nil {
			t.Fatal(err)
		}
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(p.Handler())
	if stack {
		rt.MustRegister(&sassi.Handler{Name: "stacked_noop", Fn: func(*device.Warp, sassi.HandlerArgs) {}})
	}
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, dataset)
	if err != nil {
		t.Fatalf("stack=%v: %v", stack, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("stack=%v: the run no longer verifies: %v", stack, res.VerifyErr)
	}
	stats, err := p.Results()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestBeforeAllOverBranchProfile: a before-all pass stacked on a
// branch-instrumented kernel puts sites between each branch site's
// argument set-up and its JCAL. A JCAL reads its arguments (R4..R7), so
// those sites keep them: the branch handler runs without a fault and
// records the profile it records alone.
func TestBeforeAllOverBranchProfile(t *testing.T) {
	for _, app := range []struct{ workload, dataset string }{{"rodinia.nn", ""}, {"rodinia.pathfinder", ""}, {"rodinia.b+tree", ""}} {
		dataset := app.dataset
		if dataset == "" {
			spec, _ := workloads.Get(app.workload)
			dataset = spec.DefaultDataset()
		}
		alone := branchProfile(t, app.workload, dataset, false)
		stacked := branchProfile(t, app.workload, dataset, true)
		if len(alone) == 0 || !slices.Equal(alone, stacked) {
			t.Errorf("%s: branch profile %v under a before-all pass, %v alone", app.workload, stacked, alone)
		}
	}
}
