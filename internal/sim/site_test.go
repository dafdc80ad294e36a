package sim_test

import (
	"errors"
	"slices"
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
)

// siteKernels returns "site", a kernel whose every instruction but the last
// writes a register, stored to out[tid] at the end, and its twin with a
// one-instruction after-block — a JCAL to handler h — behind each of them.
// With stale, instruction 2 loads its register from 8 bytes below the stack
// pointer, where an after-block frame would be.
func siteKernels(t *testing.T, stale bool) (base, twin *sass.Program) {
	t.Helper()
	r, imm := sass.R, sass.Imm
	k := &sass.Kernel{Name: "site", NumRegs: 16, Labels: map[string]int{}}
	out := k.AddParam("out", 8)
	third := sass.New(sass.OpIADD, []sass.Operand{r(4)}, []sass.Operand{r(4), imm(1)})
	if stale {
		third = sass.New(sass.OpLDL, []sass.Operand{r(4)}, []sass.Operand{sass.Mem(sass.SP, -8)})
	}
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpS2R, []sass.Operand{r(0)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpIADD, []sass.Operand{r(4)}, []sass.Operand{r(0), imm(1)}),
		third,
		sass.New(sass.OpIADD, []sass.Operand{r(4)}, []sass.Operand{r(4), imm(1)}),
		sass.New(sass.OpSHL, []sass.Operand{r(5)}, []sass.Operand{r(0), imm(2)}),
		sass.New(sass.OpMOV, []sass.Operand{r(2)}, []sass.Operand{sass.CMem(0, int64(out))}),
		sass.New(sass.OpMOV, []sass.Operand{r(3)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
		sass.New(sass.OpIADD, []sass.Operand{r(2)}, []sass.Operand{r(2), r(5)}),
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true}, Srcs: []sass.Operand{sass.Mem(2, 0), r(4)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	base = sass.NewProgram()
	base.AddKernel(k)
	tk := k.Clone()
	tk.NumRegs, tk.LocalBytes = 24, 64
	tk.Instrs = tk.Instrs[:0:0]
	for i, in := range k.Instrs {
		tk.Instrs = append(tk.Instrs, in)
		if i < 8 {
			jcal := sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("h")})
			jcal.Injected = true
			tk.Instrs = append(tk.Instrs, jcal)
		}
	}
	twin = sass.NewProgram()
	twin.AddKernel(tk)
	twin.InternHandler("h")
	return base, twin
}

// spMover is a dispatcher that counts calls and, at its first, lowers lane
// 0's stack pointer by 16 bytes when move.
type spMover struct {
	move  bool
	calls int
}

func (d *spMover) Dispatch(_ *sim.Device, w *sim.Warp, _ int) error {
	if d.calls++; d.calls == 1 && d.move {
		th := w.Thread(0)
		th.WriteReg(sass.SP, th.ReadReg(sass.SP)-16)
	}
	return nil
}

// launchSite launches "site" over one warp with the twin running in it,
// narrowed to thread 0's instance-th site when site, on a device with
// watchdog budget (0: the default). It returns the dispatcher, the stats
// and the launch error.
func launchSite(t *testing.T, stale, site, moveSP bool, instance, budget uint64) (*spMover, *sim.KernelStats, error) {
	t.Helper()
	base, twin := siteKernels(t, stale)
	cfg := sim.MiniGPU()
	if budget != 0 {
		cfg.WatchdogWarpInstrs = budget
	}
	dev := sim.NewDevice(cfg)
	disp := &spMover{move: moveSP}
	dev.Dispatcher = disp
	tw := &sim.Twin{Prog: twin, Warps: func(int, int) bool { return true }}
	if site {
		tw.Site = &sim.TwinSite{Thread: 0, Instance: instance}
	}
	out := dev.Alloc(4 * sim.WarpSize)
	stats, err := dev.Launch(base, "site", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(sim.WarpSize), Args: []uint64{out}, Twin: tw})
	if err == nil {
		for tid := range sim.WarpSize {
			got, _ := dev.Global.Read32(out + uint64(4*tid))
			if want := uint32(tid) + 3; !stale && got != want {
				t.Fatalf("thread %d stored %d, want %d", tid, got, want)
			}
		}
	}
	return disp, stats, err
}

// TestTwinSiteRunsOneBlock: a warp narrowed to one site runs that site's
// after-block and no other, and charges the skipped blocks to its issue
// count, so that its MaxWarpInstrs, and the watchdog, are the whole twin's.
func TestTwinSiteRunsOneBlock(t *testing.T) {
	_, whole, err := launchSite(t, false, false, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for instance := range uint64(8) {
		disp, narrow, err := launchSite(t, false, true, false, instance, 0)
		if err != nil {
			t.Fatal(err)
		}
		if disp.calls != 1 || narrow.InjectedWarpInstrs != 1 || narrow.MaxWarpInstrs != whole.MaxWarpInstrs {
			t.Errorf("instance %d: %d handler calls, %d injected instructions, MaxWarpInstrs %d; want 1, 1 and %d",
				instance, disp.calls, narrow.InjectedWarpInstrs, narrow.MaxWarpInstrs, whole.MaxWarpInstrs)
		}
		_, _, err = launchSite(t, false, true, false, instance, whole.MaxWarpInstrs-1)
		var ke *sim.KernelError
		if !errors.As(err, &ke) || ke.Kind != sim.ErrHang {
			t.Errorf("instance %d, a budget one short of the whole twin's: %v, want a hang", instance, err)
		}
	}
}

// TestTwinSiteStopsWhenSPMoves: a warp whose site's after-block leaves the
// stack pointer row changed does not go back to the launched kernel; the
// launch stops with a *SkippedFrameError at the instruction after the site,
// for the caller to run again with the whole twin, which runs on.
func TestTwinSiteStopsWhenSPMoves(t *testing.T) {
	if _, _, err := launchSite(t, false, false, true, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := launchSite(t, false, true, true, 0, 0)
	var sfe *sim.SkippedFrameError
	if !errors.As(err, &sfe) || sfe.PC != 1 || sfe.CTA != 0 {
		t.Fatalf("got %v, want a stop at pc 1 of CTA 0", err)
	}
}

// TestTwinSiteFencesSkippedFrames: back in the launched kernel after its
// site, a warp that loads from local memory below its stack pointer — where
// the whole twin's warp finds the last after-block's frame — stops the
// launch with a *SkippedFrameError; before its site, and on the whole twin,
// the same load runs.
func TestTwinSiteFencesSkippedFrames(t *testing.T) {
	if _, _, err := launchSite(t, true, false, false, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := launchSite(t, true, true, false, 3, 0); err != nil {
		t.Fatalf("a site after the load: %v", err)
	}
	_, _, err := launchSite(t, true, true, false, 0, 0)
	var sfe *sim.SkippedFrameError
	if !errors.As(err, &sfe) || sfe.PC != 2 || sfe.CTA != 0 {
		t.Fatalf("got %v, want a skipped frame at pc 2 of CTA 0", err)
	}
}

// TestTwinSiteRefused: a Twin.Site is refused on the reference loop, and
// over a twin that is not the launched kernel with after-blocks: one with
// an original instruction more, one with no injected code, and one with a
// block behind an instruction that may not go on to it.
func TestTwinSiteRefused(t *testing.T) {
	base, twin := siteKernels(t, false)
	tk, _ := twin.Kernel("site")
	edit := func(f func(k *sass.Kernel)) *sass.Program {
		k := tk.Clone()
		f(k)
		p := sass.NewProgram()
		p.AddKernel(k)
		p.InternHandler("h")
		return p
	}
	extra := edit(func(k *sass.Kernel) {
		k.Instrs = append(k.Instrs[:1:1], k.Instrs...)
	})
	bare := edit(func(k *sass.Kernel) {
		k.Instrs = slices.DeleteFunc(k.Instrs, func(in sass.Instruction) bool { return in.Injected })
	})
	branch := edit(func(k *sass.Kernel) {
		k.Labels["next"] = 2
		k.Instrs[0] = sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("next")})
		if err := k.ResolveLabels(); err != nil {
			t.Fatal(err)
		}
	})
	for _, c := range []struct {
		name string
		ref  bool
		twin *sass.Program
	}{{"reference", true, twin}, {"extra", false, extra}, {"bare", false, bare}, {"branch", false, branch}} {
		dev := sim.NewDevice(sim.MiniGPU())
		if c.ref {
			simref.Install(dev)
		}
		dev.Dispatcher = &spMover{}
		_, err := dev.Launch(base, "site", sim.LaunchParams{
			Grid: sim.D1(1), Block: sim.D1(sim.WarpSize), Args: []uint64{dev.Alloc(4 * sim.WarpSize)},
			Twin: &sim.Twin{Prog: c.twin, Warps: func(int, int) bool { return true }, Site: &sim.TwinSite{}}})
		var te *sim.TwinError
		if !errors.As(err, &te) {
			t.Errorf("%s: %v, want a TwinError", c.name, err)
		}
	}
}
