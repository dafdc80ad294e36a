package handlers_test

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/mem"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// TestHandlerBodyIsUnmodeled: beyond the flat HandlerBodyCost a JCAL
// charges, what a handler body does is host code the model does not see.
// So for every tools-suite program under each case-study tool and the site
// profiler, every launch's KernelStats — cycles, instructions, stalls,
// transactions — with the real handler equal those with an empty body of
// the same What. The benchmark's handlers.body_* decomposition, which
// subtracts the two runs, assumes exactly this.
func TestHandlerBodyIsUnmodeled(t *testing.T) {
	empty := func(*device.Warp, sassi.HandlerArgs) {}
	for _, p := range toolPrograms {
		for _, vt := range viewTools {
			t.Run(p+"/"+vt.name, func(t *testing.T) {
				withBody := launchStats(t, p, vt, nil)
				if len(withBody) == 0 || withBody[0].HandlerCalls == 0 {
					t.Fatalf("no handler call: %v", withBody)
				}
				if noop := launchStats(t, p, vt, empty); fmt.Sprint(noop) != fmt.Sprint(withBody) {
					t.Errorf("KernelStats differ with an empty body\n--- handler ---\n%v\n--- empty ---\n%v", withBody, noop)
				}
			})
		}
	}
}

// launchStats runs program under vt's instrumentation with its handler, or
// with body in place of the handler's when body is not nil, and returns
// every launch's KernelStats.
func launchStats(t *testing.T, program string, vt viewTool, body sassi.HandlerFunc) []sim.KernelStats {
	t.Helper()
	spec, _ := workloads.Get(program)
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.KeplerK10())
	var stats []sim.KernelStats
	ctx.Subscribe(cuda.LaunchCallbacks{PostLaunch: func(_ string, _ int, s *sim.KernelStats, _ error) {
		if s != nil {
			stats = append(stats, *s)
		}
	}})
	opts, h := vt.tool(ctx)
	if body != nil {
		h = &sassi.Handler{Name: h.Name, What: h.What, Fn: body}
	}
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
	return stats
}

// TestMemDivMatchesCoalescer ties Case Study II to the memory model: on
// every tools-suite program, the Figure 8 matrix the memdiv profiler
// (Figure 6) builds in software equals the one the simulator's 32-byte
// coalescer yields for the same accesses, recorded through MemWatch over
// the uninstrumented run — up to two differences by design, which the test
// measures from the profiler's own memory parameters, in the same run and
// beside its handler:
//
//   - memdiv also counts global ATOM and RED, which MemWatch does not see
//     (the coalescer charges their transactions without reporting them).
//     Their cells, counted directly — lanes that execute with a global
//     address, and the distinct 32-byte lines of those addresses — are
//     exactly the difference.
//   - memdiv counts the line of a lane's first byte only, where the
//     coalescer also counts the next line of an access that crosses into
//     it. No tools-suite program issues such an access, which the test
//     checks, so this difference is stated and shown absent.
func TestMemDivMatchesCoalescer(t *testing.T) {
	sawAtomics := false
	for _, program := range toolPrograms {
		t.Run(program, func(t *testing.T) {
			spec, _ := workloads.Get(program)
			runs := func(cfg sim.Config, attach func(ctx *cuda.Context, prog *sass.Program)) {
				t.Helper()
				prog, err := spec.Compile(ptxas.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ctx := cuda.NewContext(cfg)
				attach(ctx, prog)
				res, err := spec.Run(ctx, prog, spec.DefaultDataset())
				if err != nil || res.VerifyErr != nil {
					t.Fatal(err, res.VerifyErr)
				}
			}

			var coalesced mem.DivergenceMatrix
			runs(sim.MiniGPU(), func(ctx *cuda.Context, _ *sass.Program) {
				ctx.Device().MemWatch = func(ev sim.MemAccess) { coalesced.Record(ev.Res) }
			})

			var profiler *handlers.MemDivProfiler
			var atomics mem.DivergenceMatrix
			crossing := 0
			cfg := sim.MiniGPU()
			cfg.SequentialSMs = true // the census below is unsynchronised host state
			runs(cfg, func(ctx *cuda.Context, prog *sass.Program) {
				profiler = handlers.NewMemDivProfiler(ctx)
				h := profiler.Handler()
				census := func(w *device.Warp, args sassi.HandlerArgs) {
					var addrs device.Vec64
					args.MP.Addresses(&addrs)
					var res mem.Result
					for m := args.BP.WillExecuteMask() & w.Running(); m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m)
						a := addrs[l]
						if !mem.IsGlobal(a) {
							continue
						}
						res.NumActive++
						if !slices.Contains(res.Lines, a>>5) {
							res.Lines = append(res.Lines, a>>5)
						}
						if a&31+uint64(args.MP.Width()) > 32 {
							crossing++
						}
					}
					if args.MP.IsAtomic() {
						atomics.Record(res)
					}
				}
				if err := sassi.Instrument(prog, profiler.Options()); err != nil {
					t.Fatal(err)
				}
				rt := sassi.NewRuntime(prog)
				rt.MustRegister(&sassi.Handler{Name: h.Name, What: h.What, Fn: func(w *device.Warp, args sassi.HandlerArgs) {
					census(w, args)
					h.Fn(w, args)
				}})
				rt.Attach(ctx.Device())
			})

			got, err := profiler.Matrix()
			if err != nil {
				t.Fatal(err)
			}
			if coalesced.TotalAccesses() == 0 {
				t.Fatal("no global access observed")
			}
			if crossing != 0 {
				t.Fatalf("%d lane accesses cross a 32-byte line", crossing)
			}
			want := coalesced
			want.Merge(&atomics)
			if got.Counts != want.Counts {
				for a := range got.Counts {
					for u := range got.Counts[a] {
						if g, w := got.Counts[a][u], want.Counts[a][u]; g != w {
							t.Errorf("%d active, %d lines: memdiv %d, coalescer %d + atomics %d",
								a+1, u+1, g, coalesced.Counts[a][u], atomics.Counts[a][u])
						}
					}
				}
			}
			sawAtomics = sawAtomics || atomics.TotalAccesses() > 0
		})
	}
	if !sawAtomics {
		t.Error("no tools-suite program issued a global atomic: the first difference went unexercised")
	}
}
