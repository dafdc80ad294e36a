package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/sass"
)

// twinOf returns stampKernel(id) reshaped the way instrumentation reshapes a
// kernel: more registers, a static stack frame, and a JCAL to a handler only
// its own program links.
func twinOf(t *testing.T, id uint32) *sass.Program {
	t.Helper()
	prog := stampKernel(t, id)
	k := prog.Kernels[0]
	k.NumRegs, k.LocalBytes = 40, 64
	exit := len(k.Instrs) - 1
	k.Instrs = append(k.Instrs[:exit:exit],
		sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("h")}),
		sass.New(sass.OpEXIT, nil, nil))
	prog.InternHandler("h")
	return prog
}

// countingDispatcher counts dispatches and the ones that came from a CTA
// not running want.
type countingDispatcher struct {
	want         *sass.Kernel
	calls, wrong atomic.Int64
}

func (d *countingDispatcher) Dispatch(_ *Device, w *Warp, _ int) error {
	d.calls.Add(1)
	if w.CTA.Kernel != d.want {
		d.wrong.Add(1)
	}
	return nil
}

// TestTwinRunsPickedCTAs: the CTAs a Twin picks run its kernel — its code,
// its register count, its handler symbols — and the others run the launched
// one, on either core and either SM dispatch.
func TestTwinRunsPickedCTAs(t *testing.T) {
	const ctas, threads, baseID, twinID = 24, 64, 3, 100
	base, twin := stampKernel(t, baseID), twinOf(t, twinID)
	picked := func(cta int) bool { return cta%5 == 2 }
	for _, ref := range []bool{false, true} {
		for _, seq := range []bool{false, true} {
			t.Run(fmt.Sprintf("reference=%v/sequentialSMs=%v", ref, seq), func(t *testing.T) {
				cfg := MiniGPU()
				cfg.ReferenceInterpreter, cfg.SequentialSMs = ref, seq
				dev := NewDevice(cfg)
				disp := &countingDispatcher{want: twin.Kernels[0]}
				dev.Dispatcher = disp
				buf := dev.Alloc(4*ctas*threads, "out")
				stats, err := dev.Launch(base, "stamp", LaunchParams{
					Grid: D1(ctas), Block: D1(threads), Args: []uint64{buf},
					Twin: &Twin{Prog: twin, CTAs: picked},
				})
				if err != nil {
					t.Fatal(err)
				}
				wantCalls := 0
				for cta := 0; cta < ctas; cta++ {
					id := uint32(baseID)
					if picked(cta) {
						id = twinID
						wantCalls += threads / WarpSize
					}
					for tid := 0; tid < threads; tid++ {
						got, _ := dev.Global.Read32(buf + uint64(4*(cta*threads+tid)))
						if got != uint32(tid)+id {
							t.Fatalf("CTA %d thread %d stored %d, want %d", cta, tid, got, uint32(tid)+id)
						}
					}
				}
				if int(disp.calls.Load()) != wantCalls || uint64(wantCalls) != stats.HandlerCalls {
					t.Errorf("%d dispatches, stats say %d, want %d", disp.calls.Load(), stats.HandlerCalls, wantCalls)
				}
				if n := disp.wrong.Load(); n != 0 {
					t.Errorf("%d dispatches from a CTA whose Kernel is not the twin's", n)
				}
				if n := dev.LiveSlabs(); n != 0 {
					t.Errorf("%d slabs outstanding", n)
				}
			})
		}
	}
}

// TestTwinRefused: a twin that cannot share the launch — no such kernel,
// another parameter or shared-memory layout, no CTA set — and a launch that
// an attached observer could not attribute are structured errors before
// anything runs.
func TestTwinRefused(t *testing.T) {
	base := stampKernel(t, 3)
	all := func(int) bool { return true }
	mutate := func(f func(k *sass.Kernel)) *sass.Program {
		prog := twinOf(t, 100)
		f(prog.Kernels[0])
		return prog
	}
	twins := map[string]*Twin{
		"missing kernel": {Prog: mutate(func(k *sass.Kernel) { k.Name = "other" }), CTAs: all},
		"extra param":    {Prog: mutate(func(k *sass.Kernel) { k.AddParam("n", 4) }), CTAs: all},
		"param size":     {Prog: mutate(func(k *sass.Kernel) { k.Params[0].Size = 4 }), CTAs: all},
		"shared bytes":   {Prog: mutate(func(k *sass.Kernel) { k.SharedBytes = 256 }), CTAs: all},
		"no CTA set":     {Prog: twinOf(t, 100)},
		"no program":     {CTAs: all},
	}
	observers := map[string]func(d *Device){
		"pcsamp":   func(d *Device) { d.PCSamp = pcsamp.New(64) },
		"trace":    func(d *Device) { d.Trace = obs.NewTracer() },
		"memwatch": func(d *Device) { d.MemWatch = func(MemAccess) {} },
	}
	launch := func(t *testing.T, dev *Device, twin *Twin) {
		t.Helper()
		buf := dev.Alloc(4*4*32, "out")
		_, err := dev.Launch(base, "stamp", LaunchParams{
			Grid: D1(4), Block: D1(32), Args: []uint64{buf}, Twin: twin,
		})
		var te *TwinError
		if !errors.As(err, &te) || te.Kernel != "stamp" {
			t.Fatalf("launch error = %v, want a *TwinError for stamp", err)
		}
		if v, _ := dev.Global.Read32(buf); v != 0 || dev.LiveSlabs() != 0 {
			t.Errorf("the refused launch ran: out[0] = %d, %d slabs outstanding", v, dev.LiveSlabs())
		}
	}
	for name, twin := range twins {
		t.Run(name, func(t *testing.T) { launch(t, NewDevice(MiniGPU()), twin) })
	}
	for name, attach := range observers {
		t.Run(name, func(t *testing.T) {
			dev := NewDevice(MiniGPU())
			dev.Dispatcher = &countingDispatcher{}
			attach(dev)
			launch(t, dev, &Twin{Prog: twinOf(t, 100), CTAs: all})
		})
	}
}
