package handlers_test

import (
	"math/rand"
	"runtime"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// TestInstrumentedStackCostsWhatItTouches: every thread of a
// branch-instrumented parboil.sgemm launch spills to a frame at the top of
// a stack of DefaultStackBytes plus that frame. What a thread materialises
// is bounded by the frame the injector sized (the growth of the kernel's
// LocalBytes), not by the stack: a small multiple of the frame, and every
// thread that made a handler call materialises something.
func TestInstrumentedStackCostsWhatItTouches(t *testing.T) {
	spec, _ := workloads.Get("parboil.sgemm")
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[string]int)
	for _, k := range prog.Kernels {
		before[k.Name] = k.LocalBytes
	}
	cfg := sim.KeplerK10()
	cfg.SequentialSMs = true // the retire hook below keeps plain counters
	ctx := cuda.NewContext(cfg)
	p := handlers.NewBranchProfiler(ctx)
	if err := sassi.Instrument(prog, p.Options()); err != nil {
		t.Fatal(err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(p.Handler())
	rt.Attach(ctx.Device())

	threads, touched, worst, frame := 0, 0, 0, 0
	ctx.Device().CTARetire = func(cta *sim.CTA) {
		frame = cta.Kernel.LocalBytes - before[cta.Kernel.Name]
		for _, w := range cta.Warps {
			for _, th := range w.Threads {
				if th == nil {
					continue
				}
				threads++
				n := th.Local.Materialized()
				if n > 0 {
					touched++
				}
				worst = max(worst, n)
			}
		}
	}
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil || res.VerifyErr != nil {
		t.Fatal(err, res.VerifyErr)
	}
	if frame <= 0 || touched != threads {
		t.Fatalf("frame %d bytes, %d of %d threads touched their stack: the launch did not spill", frame, touched, threads)
	}
	if worst > 3*frame || worst >= cfg.DefaultStackBytes/4 {
		t.Errorf("a thread materialised %d stack bytes for a %d-byte frame (stack %d)",
			worst, frame, cfg.DefaultStackBytes+frame)
	}
	t.Logf("%d threads, frame %d bytes, most materialised by one thread %d", threads, frame, worst)
}

// TestInstrumentedAllocationRepeatable: the same instrumented operation —
// compile, instrument, fresh context, run, collect — allocates the same
// bytes every time, wherever the collector happens to run: with
// runtime.GC() forced before a seeded launch of each repetition the
// runtime.MemStats.TotalAlloc delta stays within 0.5 % of the first. The
// benchmark's alloc_mb bound is 1 %; pooled launch state that the
// collector could empty moved the figure by more than that.
func TestInstrumentedAllocationRepeatable(t *testing.T) {
	spec, _ := workloads.Get("parboil.histo")
	op := func(gcBefore int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		prog, err := spec.Compile(ptxas.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := cuda.NewContext(sim.KeplerK10())
		ctx.Subscribe(cuda.LaunchCallbacks{PreLaunch: func(_ string, launch int) {
			if launch == gcBefore {
				runtime.GC()
			}
		}})
		p := handlers.NewBranchProfiler(ctx)
		if err := sassi.Instrument(prog, p.Options()); err != nil {
			t.Fatal(err)
		}
		rt := sassi.NewRuntime(prog)
		rt.MustRegister(p.Handler())
		rt.Attach(ctx.Device())
		res, err := spec.Run(ctx, prog, spec.DefaultDataset())
		if err != nil || res.VerifyErr != nil {
			t.Fatal(err, res.VerifyErr)
		}
		if _, err := p.Results(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	op(-1) // lazy one-time set-up
	base := op(-1)
	rng := rand.New(rand.NewSource(20))
	for run := 0; run < 8; run++ {
		gcBefore := rng.Intn(4)
		got := op(gcBefore)
		t.Logf("run %d: GC before launch %d, %d bytes (first run %d)", run, gcBefore, got, base)
		if off := 100 * (float64(got) - float64(base)) / float64(base); off > 0.5 || off < -0.5 {
			t.Errorf("run %d (GC before launch %d) allocated %d bytes, the first %d: off by %.2f%%",
				run, gcBefore, got, base, off)
		}
	}
}
