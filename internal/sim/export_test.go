package sim

import (
	"testing"

	"sassi/internal/mem"
	"sassi/internal/sass"
)

// Hooks for the external test package, whose tests may install package
// simref's reference interpreter: package sim's own tests cannot import it.

// StampKernel is stampKernel.
var StampKernel = stampKernel

// testEngine builds the engine of a launch of prog's first kernel on d with
// p, and its CTA 0, without running anything: where the tests that step
// one warp by hand start.
func testEngine(tb testing.TB, d *Device, prog *sass.Program, p LaunchParams) (*engine, *CTA) {
	tb.Helper()
	k := prog.Kernels[0]
	base, err := d.code(prog, k)
	if err != nil {
		tb.Fatal(err)
	}
	normDim(&p.Grid)
	normDim(&p.Block)
	e := &engine{dev: d, base: base, cb: constBank(k, p.Args)}
	e.stats = &KernelStats{Kernel: k.Name, SMCycles: make([]uint64, d.Cfg.NumSMs),
		CTAs: p.Grid.Count(), Threads: p.Grid.Count() * p.Block.Count()}
	e.sms = make([]smShard, d.Cfg.NumSMs)
	for i := range e.sms {
		e.sms[i].hier = mem.Hierarchy{
			L1: d.L1s[i], L2: d.L2s[i], DRAM: d.DRAMs[i],
			L1Latency: d.Cfg.L1Latency, L2Latency: d.Cfg.L2Latency,
		}
	}
	e.ntid = [3]uint32{uint32(p.Block.X), uint32(p.Block.Y), uint32(p.Block.Z)}
	e.nctaid = [3]uint32{uint32(p.Grid.X), uint32(p.Grid.Y), uint32(p.Grid.Z)}
	return e, e.buildCTA(0, p.Grid, p.Block, 0, 0)
}

// StepFirstWarp builds CTA 0 of a launch of prog's first kernel on d with
// p and steps its first warp until it is done or fails, on the reference
// loop when d has a Reference and on the core otherwise. It returns the
// warp, whose state stays readable, the launch's KernelStats and the error.
func StepFirstWarp(tb testing.TB, d *Device, prog *sass.Program, p LaunchParams) (*Warp, KernelStats, error) {
	e, cta := testEngine(tb, d, prog, p)
	w := cta.Warps[0]
	var err error
	for !w.Done && err == nil {
		if d.Reference != nil {
			err = e.step(w)
		} else {
			err = e.stepPre(w)
		}
	}
	e.finishStats()
	return w, *e.stats, err
}

// Regs returns a copy of w's register rows: regs[r*WarpSize+lane].
func (w *Warp) Regs() []uint32 { return append([]uint32(nil), w.regs...) }
