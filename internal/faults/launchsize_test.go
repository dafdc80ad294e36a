package faults

import (
	"errors"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// growingVecadd is demo.vecadd's kernel under a host driver whose k-th run
// launches sizes[k] threads (the last size from then on): a program whose
// launch geometry is not the same run to run, as parboil.bfs's is not.
func growingVecadd(t *testing.T, name string, sizes ...int) *workloads.Spec {
	t.Helper()
	vecadd, ok := workloads.Get("demo.vecadd")
	if !ok {
		t.Fatal("demo.vecadd not registered")
	}
	call := 0
	return &workloads.Spec{
		Name: name, Datasets: []string{"-"}, Build: vecadd.Build,
		Run: func(ctx *cuda.Context, prog *sass.Program, _ string) (*workloads.Result, error) {
			n := sizes[min(call, len(sizes)-1)]
			call++
			a := ctx.AllocF32("a", make([]float32, n))
			b := ctx.AllocF32("b", make([]float32, n))
			out := ctx.Malloc(uint64(4*n), "out")
			if _, err := ctx.LaunchKernel(prog, "vecadd", sim.LaunchParams{
				Grid: sim.D1(n / 64), Block: sim.D1(64),
				Args: []uint64{uint64(a), uint64(b), uint64(out), uint64(n)},
			}); err != nil {
				return nil, err
			}
			buf := make([]byte, 4*n)
			err := ctx.MemcpyDtoH(buf, out)
			return &workloads.Result{Output: buf}, err
		},
	}
}

// TestProfileCoversLargerLaunch is the maxLaunchThreads bug and its bound: a
// profiling run that launches more threads than the golden run did used to
// lose them from the site space silently (and every campaign paid for 65536
// counters). Now the campaign profiles again with the size it saw, and the
// site space covers every thread; a program that outgrows every attempt is
// a *LaunchSizeError, not a campaign over a truncated site space.
func TestProfileCoversLargerLaunch(t *testing.T) {
	sites := func(spec *workloads.Spec) uint64 {
		t.Helper()
		c := &Campaign{Spec: spec, Dataset: "-", Injections: 2, Seed: 1, Config: sim.MiniGPU(), Workers: 1}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		return res.SitesTotal
	}
	steady := sites(growingVecadd(t, "test.vecadd-steady", 256))
	if grown := sites(growingVecadd(t, "test.vecadd-grows-once", 64, 256)); grown != steady {
		t.Errorf("golden run of 64 threads, profiling run of 256: %d sites, want the %d of 256 threads", grown, steady)
	}

	c := &Campaign{
		Spec: growingVecadd(t, "test.vecadd-keeps-growing", 64, 128, 192, 256, 320), Dataset: "-",
		Injections: 2, Seed: 1, Config: sim.MiniGPU(), Workers: 1,
	}
	_, err := c.Run()
	var le *LaunchSizeError
	if !errors.As(err, &le) {
		t.Fatalf("campaign on a program that outgrows every profiling attempt returned %v, want a *LaunchSizeError", err)
	}
	if le.Threads != 256 || le.Max != 192 {
		t.Errorf("error reports %d threads against %d counters, want 256 against 192", le.Threads, le.Max)
	}
}
