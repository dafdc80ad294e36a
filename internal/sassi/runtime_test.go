package sassi_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/mem"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// cores is the execution axis of the failure tests. The names predate the
// default flip: "predecoded" is what every default sim.Config runs,
// "concurrent" and "sequential" are the reference interpreter with SMs on
// goroutines and in order.
var cores = []struct {
	name                     string
	reference, sequentialSMs bool
}{
	{"predecoded", false, false},
	{"predecoded-sequential", false, true},
	{"concurrent", true, false},
	{"sequential", true, true},
}

// storeKernel is out[gtid] = gtid, instrumented before its store.
func storeKernel(t *testing.T) *sass.Program {
	t.Helper()
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	b.StGlobalU32(b.Index(out, i, 2), 0, i)
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sassi.Instrument(prog, sassi.Options{Where: sassi.BeforeMem, BeforeHandler: "h"}); err != nil {
		t.Fatal(err)
	}
	return prog
}

const storeCTAs = 16

// launchStore runs storeKernel over storeCTAs single-warp CTAs.
func launchStore(ctx *cuda.Context, prog *sass.Program, buf cuda.DevPtr) error {
	_, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(storeCTAs), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	})
	return err
}

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines left behind (%d before the launch)", runtime.NumGoroutine()-base, base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandlerFailureIsStructuredError: a handler that panics and one that
// faults, both in the middle of a launch (CTA 5 only), on every core. The
// launch must fail like any kernel fault with an error that unwraps to the
// *HandlerError locating the failure, no goroutine may outlive it, later
// lanes of the failing dispatch must not have run, every CTA slab the
// launch carved must be back with the device, and the device must serve
// the next launches as before.
func TestHandlerFailureIsStructuredError(t *testing.T) {
	const badCTA, badLane = 5, 7
	cases := []struct {
		name  string
		fail  func(c device.Lane)
		check func(t *testing.T, he *sassi.HandlerError)
	}{
		{"panic", func(c device.Lane) {
			var none []int
			none[c.Index()]++ // index out of range: a bug in user handler code
		}, func(t *testing.T, he *sassi.HandlerError) {
			var re runtime.Error
			if !errors.As(he, &re) || !strings.Contains(he.Error(), "index out of range") {
				t.Errorf("cause is not the runtime error: %v", he)
			}
		}},
		{"fault", func(c device.Lane) {
			c.WriteGlobal32(0xdeadbeef, 1) // below the heap
		}, func(t *testing.T, he *sassi.HandlerError) {
			var mf *mem.Fault
			if !errors.As(he, &mf) || mf.Addr != 0xdeadbeef || !mf.Write {
				t.Errorf("cause is not the memory fault: %v", he)
			}
		}},
	}
	for _, tc := range cases {
		for _, core := range cores {
			t.Run(tc.name+"/"+core.name, func(t *testing.T) {
				cfg := sim.KeplerK10()
				cfg.ReferenceInterpreter, cfg.SequentialSMs = core.reference, core.sequentialSMs
				ctx := cuda.NewContext(cfg)
				prog := storeKernel(t)
				buf := ctx.Malloc(4*32*storeCTAs, "out")

				armed := false
				var ran [storeCTAs]uint32 // lanes the handler reached, per CTA
				rt := sassi.NewRuntime(prog)
				rt.MustRegister(&sassi.Handler{Name: "h", Fn: func(w *device.Warp, args sassi.HandlerArgs) {
					for l := w.First(); l >= 0; l = w.Next(l) {
						c := w.Lane(l)
						cta, _, _ := c.BlockIdx()
						ran[cta] |= 1 << uint(l)
						if armed && cta == badCTA && l >= badLane {
							tc.fail(c)
						}
					}
				}})
				rt.Attach(ctx.Device())

				// Steady state of clean launches before any failure.
				clean := func() {
					if err := launchStore(ctx, prog, buf); err != nil {
						t.Fatalf("clean launch: %v", err)
					}
				}
				clean()

				base := runtime.NumGoroutine()
				armed = true
				for i := 0; i < 3; i++ {
					ran = [storeCTAs]uint32{}
					err := launchStore(ctx, prog, buf)
					var ke *sim.KernelError
					if !errors.As(err, &ke) || ke.Kind != sim.ErrInvalid || ke.Kernel != "k" {
						t.Fatalf("launch error = %v, want a kernel fault of k", err)
					}
					var he *sassi.HandlerError
					if !errors.As(err, &he) {
						t.Fatalf("launch error %v does not unwrap to a *sassi.HandlerError", err)
					}
					if !strings.Contains(ke.Detail, he.Error()) {
						t.Errorf("launch error %q does not carry the dispatch error %q", ke.Detail, he)
					}
					if he.Handler != "h" || he.Kernel != "k" || he.Lane != badLane || he.Site != 0 {
						t.Errorf("located at %+v, want handler h, kernel k, site 0, lane %d", he, badLane)
					}
					if in := prog.Kernels[0].Instrs[he.PC]; in.Op != sass.OpJCAL {
						t.Errorf("PC %d is %v, want the JCAL", he.PC, in.Op)
					}
					tc.check(t, he)
					// First failing lane aborts the dispatch: lanes 0..badLane
					// ran, none above it did.
					if ran[badCTA] != 1<<(badLane+1)-1 {
						t.Errorf("lanes reached in the failing dispatch = %#x, want %#x", ran[badCTA], uint32(1<<(badLane+1)-1))
					}
					// The failing SM had CTAs resident and the others ran on:
					// every slab is back, none left for the collector.
					if n := ctx.Device().LiveSlabs(); n != 0 {
						t.Errorf("%d CTA slabs outstanding after the failed launch", n)
					}
				}
				settleGoroutines(t, base)

				// Afterwards: correct results.
				armed = false
				clean()
				vals, err := ctx.ReadU32(buf, 32*storeCTAs)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range vals {
					if v != uint32(i) {
						t.Fatalf("out[%d] = %d after the failed launches", i, v)
					}
				}
			})
		}
	}
}

// TestDispatchZeroAlloc pins the allocation contract of the warp-level
// ABI: in steady state a full-warp dispatch of the branch profiler —
// Runtime.Dispatch, the warp view, the parameter views and the Figure 4
// body down to its device-memory atomics — performs no heap allocation.
func TestDispatchZeroAlloc(t *testing.T) {
	// One conditional branch on a full warp: if (tid < 16) out[tid] = tid.
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	b.If(b.SetpI(sass.CmpLT, i, 16), func() {
		b.StGlobalU32(b.Index(out, i, 2), 0, i)
	})
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{NoIfConvert: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.MiniGPU()
	cfg.SequentialSMs = true // AllocsPerRun must see this goroutine alone
	ctx := cuda.NewContext(cfg)
	p := handlers.NewBranchProfiler(ctx)
	if err := sassi.Instrument(prog, p.Options()); err != nil {
		t.Fatal(err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(p.Handler())

	// Measure from inside the launch, where the warp stands at the JCAL
	// with its ABI registers and parameter objects set up: the dispatch
	// is repeated on that state.
	measured := false
	ctx.Device().Dispatcher = dispatcherFunc(func(dev *sim.Device, w *sim.Warp, id int) error {
		if w.NumActive() != 32 {
			t.Errorf("dispatch with %d active lanes, want a full warp", w.NumActive())
		}
		if err := rt.Dispatch(dev, w, id); err != nil { // warm-up: claims the table slot
			return err
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := rt.Dispatch(dev, w, id); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("branch-profiler dispatch allocates %.1f times, want 0", allocs)
		}
		measured = true
		return nil
	})
	buf := ctx.Malloc(4*32, "out")
	if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	}); err != nil {
		t.Fatal(err)
	}
	if !measured {
		t.Fatal("no dispatch happened")
	}
	rows, err := p.Results()
	if err != nil || len(rows) != 1 || rows[0].Total != 202 || rows[0].Divergent != 202 {
		t.Errorf("profile after 202 dispatches = %+v, %v", rows, err)
	}
}

type dispatcherFunc func(dev *sim.Device, w *sim.Warp, id int) error

func (f dispatcherFunc) Dispatch(dev *sim.Device, w *sim.Warp, id int) error { return f(dev, w, id) }
