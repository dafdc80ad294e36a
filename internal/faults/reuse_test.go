package faults

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// cleanRun is everything a run leaves that a later consumer can see.
type cleanRun struct {
	stats     []sim.KernelStats
	output    []byte
	stdout    string
	footprint uint64
}

func runClean(t *testing.T, ctx *cuda.Context, run func(*cuda.Context) (*workloads.Result, error)) cleanRun {
	t.Helper()
	var c cleanRun
	ctx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(_ string, _ int, stats *sim.KernelStats, _ error) { c.stats = append(c.stats, *stats) },
	})
	res, err := run(ctx)
	if err != nil || res.VerifyErr != nil {
		t.Fatalf("clean run: %v / %v", err, res.VerifyErr)
	}
	c.output, c.stdout, c.footprint = res.Output, res.Stdout, ctx.Device().Global.Footprint()
	return c
}

// TestDeviceReuseAfterFailedRun is the property a campaign worker's reused
// device needs (WarpGuard's failure mode: state leaking from a crashed run
// into a later consumer): after a run that crashed, one the watchdog
// stopped, one whose handler panicked and one running CTA 0 alone that its
// fence stopped — each leaving CTAs resident, global memory and caches
// dirty, subscribers and a dispatcher attached — a reset device runs the
// clean program bit-equal to a new device: every launch's KernelStats
// (cycles included, so cache state too), the output, stdout and the
// allocation footprint, with no slab outstanding in between.
func TestDeviceReuseAfterFailedRun(t *testing.T) {
	for _, name := range []string{"demo.vecadd", "parboil.sgemm"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := workloads.Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			dataset := spec.DefaultDataset()
			prog, err := spec.Compile(ptxas.Options{})
			if err != nil {
				t.Fatal(err)
			}
			inst, err := spec.CompileInstrumented(nil, ptxas.Options{}, (&handlers.Injector{}).Options())
			if err != nil {
				t.Fatal(err)
			}
			clean := func(ctx *cuda.Context) (*workloads.Result, error) { return spec.Run(ctx, prog, dataset) }

			// The watchdog sits between what a warp of the clean program
			// needs and what one of the instrumented program needs (~49x),
			// so the "hang" run below trips it in warp 0 of CTA 0 and no clean
			// run does.
			cfg := sim.MiniGPU()
			var maxWarpInstrs uint64
			for _, s := range runClean(t, cuda.NewContext(cfg), clean).stats {
				maxWarpInstrs = max(maxWarpInstrs, s.MaxWarpInstrs)
			}
			cfg.WatchdogWarpInstrs = 2 * maxWarpInstrs
			want := runClean(t, cuda.NewContext(cfg), clean)

			// Each failing run executes instrumented code in warp 0 of CTA
			// 0 of the first launch, as an injection run does, but the
			// fenced one: it runs CTA 0 alone, original code throughout,
			// and its fence refuses the CTA's first store once the store
			// has written memory.
			whole := twinFor(inst, 0, 0, 0, false)
			fenced := func(_ string, idx int) *sim.Twin {
				if idx != 0 {
					return nil
				}
				return &sim.Twin{Prog: inst, Warps: func(int, int) bool { return false },
					CTAs: func(c int) bool { return c == 0 }, Fence: func(_ []uint64, kind sim.Access) bool { return kind != sim.AccessStore }}
			}
			failing := []struct {
				name    string
				twin    func(string, int) *sim.Twin
				handler sassi.HandlerFunc
				failed  func(error) bool
			}{
				{"crash", whole, func(w *device.Warp, _ sassi.HandlerArgs) {
					// Thread 0 loses its stack pointer: the restore
					// sequence's first LDL leaves local memory.
					if l := w.First(); w.Lane(l).GlobalThreadIdx() == 0 {
						w.Lane(l).WriteReg(1, 0x7fffff00)
					}
				}, func(err error) bool {
					var ke *sim.KernelError
					return errors.As(err, &ke) && ke.Kind == sim.ErrMemFault
				}},
				{"hang", whole, func(*device.Warp, sassi.HandlerArgs) {}, func(err error) bool {
					var ke *sim.KernelError
					return errors.As(err, &ke) && ke.Kind == sim.ErrHang
				}},
				{"handler panic", whole, func(*device.Warp, sassi.HandlerArgs) { panic("handler bug") }, func(err error) bool {
					var he *sassi.HandlerError
					return errors.As(err, &he)
				}},
				{"fenced", fenced, func(*device.Warp, sassi.HandlerArgs) {}, func(err error) bool {
					var fe *sim.FenceError
					return errors.As(err, &fe) && fe.CTA == 0
				}},
			}
			ctx := cuda.NewContext(cfg)
			for _, f := range failing {
				ctx.Device().Global.SetStrictBounds(false)
				rt := sassi.NewRuntime(inst)
				rt.MustRegister(&sassi.Handler{
					Name: (&handlers.Injector{}).Options().AfterHandler, What: sassi.PassRegisterInfo, Fn: f.handler,
				})
				rt.Attach(ctx.Device())
				ctx.Subscribe(cuda.LaunchCallbacks{Twin: f.twin})
				if _, err := clean(ctx); !f.failed(err) {
					t.Fatalf("%s run ended with %v", f.name, err)
				}
				if n := ctx.Device().LiveSlabs(); n != 0 {
					t.Fatalf("%d slabs outstanding after the %s run", n, f.name)
				}
				if err := ctx.Reset(); err != nil {
					t.Fatal(err)
				}
				got := runClean(t, ctx, clean)
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("after the %s run: KernelStats\n got %+v\nwant %+v", f.name, got.stats, want.stats)
				}
				if !bytes.Equal(got.output, want.output) || got.stdout != want.stdout {
					t.Errorf("after the %s run: output or stdout differs from a new device's", f.name)
				}
				if got.footprint != want.footprint {
					t.Errorf("after the %s run: footprint %d, a new device's is %d", f.name, got.footprint, want.footprint)
				}
				if n := ctx.Device().LiveSlabs(); n != 0 {
					t.Fatalf("%d slabs outstanding after the clean run", n)
				}
				if err := ctx.Reset(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
