package sassi_test

import (
	"testing"

	"sassi"
)

// TestPublicAPIRoundtrip exercises the facade end to end: author, compile,
// instrument, run, collect — everything a downstream user touches.
func TestPublicAPIRoundtrip(t *testing.T) {
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
	if err := sassi.Instrument(prog, sassi.InstrumentOptions{
		Where:         sassi.BeforeAll,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "h",
	}); err != nil {
		t.Fatal(err)
	}
	ctx := sassi.NewContext(sassi.MiniGPU())
	counter := ctx.Malloc(8, "counter")
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
