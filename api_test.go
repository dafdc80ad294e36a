package sassi_test

import (
	"testing"

	"sassi"
)

// scaleProgram compiles data[i] *= 3 for i < n.
func scaleProgram(t *testing.T) *sassi.Program {
	t.Helper()
	b := sassi.NewKernel("scale")
	data := b.ParamU64("data")
	n := b.ParamU32("n")
	i := b.GlobalTidX()
	b.If(b.Setp(sassi.CmpLT, i, n), func() {
		v := b.LdGlobalU32(b.Index(data, i, 2), 0)
		b.StGlobalU32(b.Index(data, i, 2), 0, b.MulI(v, 3))
	})
	prog, err := sassi.CompileModule(b)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// instrumentMemSites injects a call to handler "h" before every
// instruction, passing memory info.
func instrumentMemSites(t *testing.T, prog *sassi.Program) {
	t.Helper()
	if err := sassi.Instrument(prog, sassi.InstrumentOptions{
		Where:         sassi.BeforeAll,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "h",
	}); err != nil {
		t.Fatal(err)
	}
}

// attachMemSiteCounter links "h" on ctx's device: it counts, in the 64-bit
// word at counter, the memory instructions that will execute, per thread.
func attachMemSiteCounter(ctx *sassi.Context, prog *sassi.Program, counter sassi.DevPtr) {
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(&sassi.Handler{
		Name: "h", What: sassi.PassMemoryInfo,
		Fn: func(w *sassi.WarpCtx, args sassi.HandlerArgs) {
			for l := w.First(); l >= 0; l = w.Next(l) {
				if args.BP.IsMem() && args.BP.InstrWillExecute(l) {
					w.Lane(l).AtomicAdd64(uint64(counter), 1)
				}
			}
		},
	})
	rt.Attach(ctx.Device())
}

// TestPublicAPIRoundtrip exercises the facade end to end: author, compile,
// instrument, run, collect — everything a downstream user touches.
func TestPublicAPIRoundtrip(t *testing.T) {
	prog := scaleProgram(t)
	instrumentMemSites(t, prog)
	ctx := sassi.NewContext(sassi.MiniGPU())
	counter := ctx.Malloc(8)
	attachMemSiteCounter(ctx, prog, counter)

	host := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	dev := ctx.AllocU32("data", host)
	stats, err := ctx.LaunchKernel(prog, "scale", sassi.LaunchParams{
		Grid: sassi.D1(1), Block: sassi.D1(32),
		Args: []uint64{uint64(dev), uint64(len(host))},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.ReadU32(dev, len(host))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != host[i]*3 {
			t.Fatalf("data[%d] = %d", i, v)
		}
	}
	cnt, _ := ctx.ReadU64(counter, 1)
	if cnt[0] != uint64(2*len(host)) { // one load + one store per element
		t.Errorf("memory sites counted = %d, want %d", cnt[0], 2*len(host))
	}
	if stats.HandlerCalls == 0 {
		t.Error("no handler calls recorded")
	}
}

// TestWorkloadRegistryViaFacade sanity-checks the suite surface.
func TestWorkloadRegistryViaFacade(t *testing.T) {
	names := sassi.Workloads()
	if len(names) < 25 {
		t.Fatalf("workload suite has %d entries, want >= 25", len(names))
	}
	for _, name := range []string{"parboil.bfs", "rodinia.heartwall", "minife.csr"} {
		spec, ok := sassi.GetWorkload(name)
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if spec.DefaultDataset() == "" {
			t.Errorf("%s has no datasets", name)
		}
	}
	if _, ok := sassi.GetWorkload("ghost"); ok {
		t.Error("phantom workload found")
	}
}

// TestProfilersViaFacade runs the branch profiler through the facade.
func TestProfilersViaFacade(t *testing.T) {
	spec, _ := sassi.GetWorkload("parboil.bfs")
	prog, err := spec.Compile(sassi.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sassi.NewContext(sassi.MiniGPU())
	prof := sassi.NewBranchProfiler(ctx)
	if err := sassi.Instrument(prog, prof.Options()); err != nil {
		t.Fatal(err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(prof.Handler())
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, "UT")
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	s, err := prof.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.DynamicDivergent == 0 {
		t.Error("bfs reported no divergence")
	}
}

// TestInstrumentAfterLaunch: a program that has already run on a context is
// instrumented in place — sassi.Instrument rewrites each kernel's
// instructions under the same *Program — and launched again on the same
// context. The second launch must execute the instrumented code: it calls
// the handler, and the tool counts what a fresh context running the same
// instrumented program counts. (The execution core caches a lowered form
// of each kernel; keyed on the kernel alone it ran the old code here.)
func TestInstrumentAfterLaunch(t *testing.T) {
	prog := scaleProgram(t)
	host := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	// run launches prog on ctx with the memory-site counter attached (once
	// the program carries handler calls) and returns the launch's handler
	// calls and the count.
	run := func(ctx *sassi.Context) (uint64, uint64) {
		t.Helper()
		counter := ctx.Malloc(8)
		if len(prog.Handlers) > 0 {
			attachMemSiteCounter(ctx, prog, counter)
		}
		dev := ctx.AllocU32("data", host)
		stats, err := ctx.LaunchKernel(prog, "scale", sassi.LaunchParams{
			Grid: sassi.D1(1), Block: sassi.D1(32),
			Args: []uint64{uint64(dev), uint64(len(host))},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.ReadU32(dev, len(host))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != host[i]*3 {
				t.Fatalf("data[%d] = %d", i, v)
			}
		}
		cnt, err := ctx.ReadU64(counter, 1)
		if err != nil {
			t.Fatal(err)
		}
		return stats.HandlerCalls, cnt[0]
	}

	ctx := sassi.NewContext(sassi.MiniGPU())
	if calls, _ := run(ctx); calls != 0 {
		t.Fatalf("uninstrumented launch made %d handler calls", calls)
	}
	instrumentMemSites(t, prog)
	calls, count := run(ctx)
	freshCalls, freshCount := run(sassi.NewContext(sassi.MiniGPU()))
	if calls == 0 {
		t.Error("the launch after Instrument made no handler calls: it ran the uninstrumented code")
	}
	if calls != freshCalls || count != freshCount || count != uint64(2*len(host)) {
		t.Errorf("same context: %d calls, %d memory sites; fresh context: %d, %d; want %d sites",
			calls, count, freshCalls, freshCount, 2*len(host))
	}
}
