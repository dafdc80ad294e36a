package faults

import (
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
			out := ctx.Malloc(uint64(4 * n))
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

// TestSiteSpaceFollowsGoldenLaunches: a program whose launches grow from
// one run to the next gets the complete site space of its golden run, with
// no error. The site space used to come from a second, instrumented run
// whose per-thread counters were sized by the golden run's largest launch,
// so a profiling run that launched more threads lost them (or, bounded,
// failed the campaign after three attempts); the golden run now counts its
// own launches, sized per launch. Each campaign's golden run is the
// program's first run, so it covers sizes[0] threads, whatever later runs
// launch.
func TestSiteSpaceFollowsGoldenLaunches(t *testing.T) {
	sites := func(spec *workloads.Spec) uint64 {
		t.Helper()
		c := &Campaign{Spec: spec, Dataset: "-", Injections: 2, Seed: 1, Config: sim.MiniGPU(), Workers: 1}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		return res.SitesTotal
	}
	small := sites(growingVecadd(t, "test.vecadd-small", 64))
	large := sites(growingVecadd(t, "test.vecadd-large", 320))
	if small == 0 || large != 5*small {
		t.Fatalf("64 threads: %d sites, 320 threads: %d, want five times as many", small, large)
	}
	if got := sites(growingVecadd(t, "test.vecadd-keeps-growing", 64, 128, 192, 256, 320)); got != small {
		t.Errorf("golden run of 64 threads, injection runs growing to 320: %d sites, want the %d of 64 threads", got, small)
	}
	if got := sites(growingVecadd(t, "test.vecadd-starts-large", 320, 64)); got != large {
		t.Errorf("golden run of 320 threads, injection runs of 64: %d sites, want the %d of 320 threads", got, large)
	}
}
