package sim_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
)

// twinOf returns sim.StampKernel(id) reshaped the way instrumentation reshapes a
// kernel: more registers, a static stack frame, and a JCAL to a handler only
// its own program links.
func twinOf(t *testing.T, id uint32) *sass.Program {
	t.Helper()
	prog := sim.StampKernel(t, id)
	k := prog.Kernels[0]
	k.NumRegs, k.LocalBytes = 40, 64
	exit := len(k.Instrs) - 1
	k.Instrs = append(k.Instrs[:exit:exit],
		sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("h")}),
		sass.New(sass.OpEXIT, nil, nil))
	prog.InternHandler("h")
	return prog
}

// countingDispatcher counts dispatches and the ones that came from a warp
// not running want.
type countingDispatcher struct {
	want         *sass.Kernel
	calls, wrong atomic.Int64
}

func (d *countingDispatcher) Dispatch(_ *sim.Device, w *sim.Warp, _ int) error {
	d.calls.Add(1)
	if w.Kernel() != d.want {
		d.wrong.Add(1)
	}
	return nil
}

// TestTwinRunsPickedCTAs: the CTAs whose every warp a sim.Twin picks run
// its kernel — its code, its register count, its handler symbols — and the
// others run the launched one, on either core and either SM dispatch.
func TestTwinRunsPickedCTAs(t *testing.T) {
	const ctas, threads, baseID, twinID = 24, 64, 3, 100
	base, twin := sim.StampKernel(t, baseID), twinOf(t, twinID)
	picked := func(cta int) bool { return cta%5 == 2 }
	for _, ref := range []bool{false, true} {
		for _, seq := range []bool{false, true} {
			t.Run(fmt.Sprintf("reference=%v/sequentialSMs=%v", ref, seq), func(t *testing.T) {
				cfg := sim.MiniGPU()
				cfg.SequentialSMs = seq
				dev := sim.NewDevice(cfg)
				if ref {
					simref.Install(dev)
				}
				disp := &countingDispatcher{want: twin.Kernels[0]}
				dev.Dispatcher = disp
				buf := dev.Alloc(4 * ctas * threads)
				stats, err := dev.Launch(base, "stamp", sim.LaunchParams{
					Grid: sim.D1(ctas), Block: sim.D1(threads), Args: []uint64{buf},
					Twin: &sim.Twin{Prog: twin, Warps: func(cta, _ int) bool { return picked(cta) }},
				})
				if err != nil {
					t.Fatal(err)
				}
				wantCalls := 0
				for cta := 0; cta < ctas; cta++ {
					id := uint32(baseID)
					if picked(cta) {
						id = twinID
						wantCalls += threads / sim.WarpSize
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
					t.Errorf("%d dispatches from a warp whose Kernel is not the twin's", n)
				}
				if n := dev.LiveSlabs(); n != 0 {
					t.Errorf("%d slabs outstanding", n)
				}
			})
		}
	}
}

// exchange returns "xchg", a kernel for CTAs of two warps shaped the way
// regs, local and jcal say: each thread passes tid+id through its top
// register (R regs-1) and a word of its stack frame into shared memory,
// and after BAR.SYNC stores the word of the thread 32 lanes away — one of
// the other warp — to out[global tid]; with jcal it then calls handler h,
// which only its own program links.
func exchange(t *testing.T, id uint32, regs, local int, jcal bool) *sass.Program {
	t.Helper()
	r, imm := sass.R, sass.Imm
	top := uint8(regs - 1)
	k := &sass.Kernel{Name: "xchg", NumRegs: regs, LocalBytes: local,
		SharedBytes: 4 * 2 * sim.WarpSize, Labels: map[string]int{}}
	out := k.AddParam("out", 8)
	xor := sass.New(sass.OpLOP, []sass.Operand{r(9)}, []sass.Operand{r(8), imm(4 * sim.WarpSize)})
	xor.Mods.Logic = sass.LogicXOR
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{r(2)}, []sass.Operand{sass.CMem(0, int64(out))}),
		sass.New(sass.OpMOV, []sass.Operand{r(3)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
		sass.New(sass.OpS2R, []sass.Operand{r(0)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpS2R, []sass.Operand{r(5)}, []sass.Operand{sass.SReg(sass.SRCtaidX)}),
		sass.New(sass.OpS2R, []sass.Operand{r(6)}, []sass.Operand{sass.SReg(sass.SRNTidX)}),
		sass.New(sass.OpIADD32, []sass.Operand{r(top)}, []sass.Operand{r(0), imm(int64(id))}),
		sass.New(sass.OpSTL, nil, []sass.Operand{sass.Mem(sass.SP, -4), r(top)}),
		sass.New(sass.OpLDL, []sass.Operand{r(7)}, []sass.Operand{sass.Mem(sass.SP, -4)}),
		sass.New(sass.OpSHL, []sass.Operand{r(8)}, []sass.Operand{r(0), imm(2)}),
		sass.New(sass.OpSTS, nil, []sass.Operand{sass.Mem(8, 0), r(7)}),
		sass.New(sass.OpBAR, nil, nil),
		xor,
		sass.New(sass.OpLDS, []sass.Operand{r(10)}, []sass.Operand{sass.Mem(9, 0)}),
		sass.New(sass.OpIMAD, []sass.Operand{r(4)}, []sass.Operand{r(5), r(6), r(0)}),
		sass.New(sass.OpSHL, []sass.Operand{r(4)}, []sass.Operand{r(4), imm(2)}),
		sass.New(sass.OpIADD, []sass.Operand{r(2)}, []sass.Operand{r(2), r(4)}),
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(2, 0), r(10)}},
	}
	if jcal {
		k.Instrs = append(k.Instrs, sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("h")}))
	}
	k.Instrs = append(k.Instrs, sass.New(sass.OpEXIT, nil, nil))
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	if jcal {
		prog.InternHandler("h")
	}
	return prog
}

// TestTwinRunsPickedWarps: within one CTA, the warps a sim.Twin picks run
// its kernel and the others the launched one, each with its own kernel's
// register count, local bytes and stack pointer, whichever kernel asks for
// more; only picked warps call handlers; and warps of the two kernels
// exchange values through shared memory across BAR.SYNC. More CTAs than
// fit at once, so slabs carved for one mix of kernels serve another. On
// either core and either SM dispatch.
func TestTwinRunsPickedWarps(t *testing.T) {
	const ctas, threads, baseID, twinID = 24, 2 * sim.WarpSize, 3, 100
	// CTA c picks its warps by pick[c%4]: one each way round, none, both.
	pick := [4][2]bool{{true, false}, {false, true}, {false, false}, {true, true}}
	picked := func(cta, warp int) bool { return pick[cta%4][warp] }
	shapes := map[string]struct{ base, twin *sass.Program }{
		"twin larger": {exchange(t, baseID, 16, 0, false), exchange(t, twinID, 40, 64, true)},
		"base larger": {exchange(t, baseID, 40, 64, false), exchange(t, twinID, 16, 0, true)},
	}
	for name, shape := range shapes {
		for _, ref := range []bool{false, true} {
			for _, seq := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/reference=%v/sequentialSMs=%v", name, ref, seq), func(t *testing.T) {
					cfg := sim.MiniGPU()
					cfg.SequentialSMs = seq
					dev := sim.NewDevice(cfg)
					if ref {
						simref.Install(dev)
					}
					twinK := shape.twin.Kernels[0]
					disp := &countingDispatcher{want: twinK}
					dev.Dispatcher = disp
					// CTARetire runs on the SM goroutines: the first
					// misbuilt warp is kept.
					var bad atomic.Pointer[string]
					dev.CTARetire = func(cta *sim.CTA) {
						for _, w := range cta.Warps {
							want := shape.base.Kernels[0]
							if picked(cta.Index, w.IDinCTA) {
								want = twinK
							}
							th := w.Thread(0)
							regs, local := max(want.NumRegs, 16), want.LocalBytes+cfg.DefaultStackBytes
							if w.Kernel() != want || th.NumRegs() != regs || th.LocalSize() != local {
								msg := fmt.Sprintf("CTA %d warp %d: kernel %p (want %p), %d registers (want %d), %d local bytes (want %d)",
									cta.Index, w.IDinCTA, w.Kernel(), want, th.NumRegs(), regs, th.LocalSize(), local)
								bad.CompareAndSwap(nil, &msg)
							}
						}
					}
					buf := dev.Alloc(4 * ctas * threads)
					stats, err := dev.Launch(shape.base, "xchg", sim.LaunchParams{
						Grid: sim.D1(ctas), Block: sim.D1(threads), Args: []uint64{buf},
						Twin: &sim.Twin{Prog: shape.twin, Warps: picked},
					})
					if err != nil {
						t.Fatal(err)
					}
					if b := bad.Load(); b != nil {
						t.Error(*b)
					}
					wantCalls := 0
					for cta := 0; cta < ctas; cta++ {
						for tid := 0; tid < threads; tid++ {
							if tid%sim.WarpSize == 0 && picked(cta, tid/sim.WarpSize) {
								wantCalls++
							}
							// The value the thread of the other warp passed on.
							from := tid ^ sim.WarpSize
							id := uint32(baseID)
							if picked(cta, from/sim.WarpSize) {
								id = twinID
							}
							got, _ := dev.Global.Read32(buf + uint64(4*(cta*threads+tid)))
							if want := uint32(from) + id; got != want {
								t.Fatalf("CTA %d thread %d stored %d, want %d", cta, tid, got, want)
							}
						}
					}
					if int(disp.calls.Load()) != wantCalls || uint64(wantCalls) != stats.HandlerCalls {
						t.Errorf("%d dispatches, stats say %d, want %d", disp.calls.Load(), stats.HandlerCalls, wantCalls)
					}
					if n := disp.wrong.Load(); n != 0 {
						t.Errorf("%d dispatches from a warp whose Kernel is not the twin's", n)
					}
					if n := dev.LiveSlabs(); n != 0 {
						t.Errorf("%d slabs outstanding", n)
					}
				})
			}
		}
	}
}

// TestTwinRefused: a twin that cannot share the launch — no such kernel,
// another parameter or shared-memory layout, no warp set — and a launch that
// an attached observer could not attribute are structured errors before
// anything runs.
func TestTwinRefused(t *testing.T) {
	base := sim.StampKernel(t, 3)
	all := func(int, int) bool { return true }
	mutate := func(f func(k *sass.Kernel)) *sass.Program {
		prog := twinOf(t, 100)
		f(prog.Kernels[0])
		return prog
	}
	twins := map[string]*sim.Twin{
		"missing kernel": {Prog: mutate(func(k *sass.Kernel) { k.Name = "other" }), Warps: all},
		"extra param":    {Prog: mutate(func(k *sass.Kernel) { k.AddParam("n", 4) }), Warps: all},
		"param size":     {Prog: mutate(func(k *sass.Kernel) { k.Params[0].Size = 4 }), Warps: all},
		"shared bytes":   {Prog: mutate(func(k *sass.Kernel) { k.SharedBytes = 256 }), Warps: all},
		"no warp set":    {Prog: twinOf(t, 100)},
		"no program":     {Warps: all},
	}
	observers := map[string]func(d *sim.Device){
		"pcsamp":   func(d *sim.Device) { d.PCSamp = pcsamp.New(64) },
		"trace":    func(d *sim.Device) { d.Trace = obs.NewTracer() },
		"memwatch": func(d *sim.Device) { d.MemWatch = func(sim.MemAccess) {} },
		"probe":    func(d *sim.Device) { d.Probe = &probeRecorder{} },
	}
	launch := func(t *testing.T, dev *sim.Device, twin *sim.Twin) {
		t.Helper()
		buf := dev.Alloc(4 * 4 * 32)
		_, err := dev.Launch(base, "stamp", sim.LaunchParams{
			Grid: sim.D1(4), Block: sim.D1(32), Args: []uint64{buf}, Twin: twin,
		})
		var te *sim.TwinError
		if !errors.As(err, &te) || te.Kernel != "stamp" {
			t.Fatalf("launch error = %v, want a *sim.TwinError for stamp", err)
		}
		if v, _ := dev.Global.Read32(buf); v != 0 || dev.LiveSlabs() != 0 {
			t.Errorf("the refused launch ran: out[0] = %d, %d slabs outstanding", v, dev.LiveSlabs())
		}
	}
	for name, twin := range twins {
		t.Run(name, func(t *testing.T) { launch(t, sim.NewDevice(sim.MiniGPU()), twin) })
	}
	for name, attach := range observers {
		t.Run(name, func(t *testing.T) {
			dev := sim.NewDevice(sim.MiniGPU())
			dev.Dispatcher = &countingDispatcher{}
			attach(dev)
			launch(t, dev, &sim.Twin{Prog: twinOf(t, 100), Warps: all})
		})
	}
}
