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
// a stack of DefaultStackBytes plus that frame. What a warp materialises
// for its 32 interleaved stacks is bounded by the frame the injector sized
// (the growth of the kernel's LocalBytes), not by the stack: 32 lanes × a
// small multiple of the frame, and every warp that made a handler call
// materialises something.
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

	warps, touched, worst, frame := 0, 0, 0, 0
	ctx.Device().CTARetire = func(cta *sim.CTA) {
		k := cta.Warps[0].Kernel()
		frame = k.LocalBytes - before[k.Name]
		for _, w := range cta.Warps {
			warps++
			n := w.LocalMaterialized()
			if n > 0 {
				touched++
			}
			worst = max(worst, n)
		}
	}
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil || res.VerifyErr != nil {
		t.Fatal(err, res.VerifyErr)
	}
	if frame <= 0 || touched != warps {
		t.Fatalf("frame %d bytes, %d of %d warps touched their stacks: the launch did not spill", frame, touched, warps)
	}
	if worst > sim.WarpSize*3*frame || worst >= sim.WarpSize*cfg.DefaultStackBytes/4 {
		t.Errorf("a warp materialised %d stack bytes for 32 lanes of a %d-byte frame (stack %d)",
			worst, frame, cfg.DefaultStackBytes+frame)
	}
	t.Logf("%d warps, frame %d bytes, most materialised by one warp %d (%d per lane)", warps, frame, worst, worst/sim.WarpSize)
}

// TestInstrumentedAllocationRepeatable: the same instrumented operation —
// compile, instrument, fresh context, run, collect — allocates the same
// bytes every time, wherever the collector happens to run: with
// runtime.GC() forced before a seeded launch of each repetition the
// runtime.MemStats.TotalAlloc delta stays within 0.5 % of the first, under
// the branch, memory-divergence and value profilers. The benchmark's
// alloc_mb bound is 1 %; pooled launch or dispatch state that the collector
// could empty moved the figure by more than that.
func TestInstrumentedAllocationRepeatable(t *testing.T) {
	spec, _ := workloads.Get("parboil.histo")
	tools := []struct {
		name string
		// wire builds the profiler: its instrumentation, its handler and
		// its result collection.
		wire func(ctx *cuda.Context) (sassi.Options, *sassi.Handler, func() error)
	}{
		{"branch", func(ctx *cuda.Context) (sassi.Options, *sassi.Handler, func() error) {
			p := handlers.NewBranchProfiler(ctx)
			return p.Options(), p.Handler(), func() error { _, err := p.Results(); return err }
		}},
		{"memdiv", func(ctx *cuda.Context) (sassi.Options, *sassi.Handler, func() error) {
			p := handlers.NewMemDivProfiler(ctx)
			return p.Options(), p.Handler(), func() error { _, err := p.Matrix(); return err }
		}},
		{"value", func(ctx *cuda.Context) (sassi.Options, *sassi.Handler, func() error) {
			p := handlers.NewValueProfiler(ctx)
			return p.Options(), p.Handler(), func() error { _, err := p.Results(); return err }
		}},
	}
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
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
				opts, h, collect := tool.wire(ctx)
				if err := sassi.Instrument(prog, opts); err != nil {
					t.Fatal(err)
				}
				rt := sassi.NewRuntime(prog)
				rt.MustRegister(h)
				rt.Attach(ctx.Device())
				res, err := spec.Run(ctx, prog, spec.DefaultDataset())
				if err != nil || res.VerifyErr != nil {
					t.Fatal(err, res.VerifyErr)
				}
				if err := collect(); err != nil {
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
		})
	}
}
