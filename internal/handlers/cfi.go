package handlers

import (
	"fmt"
	"sync"

	"sassi/internal/analysis"
	"sassi/internal/analysis/cfi"
	"sassi/internal/device"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// CFIHandlerSymbol is the JCAL symbol the CFI checker instruments with.
const CFIHandlerSymbol = "sassi_cfi_handler"

// maxCFIViolations bounds the violation log so a thoroughly corrupted run
// cannot grow it without bound; further findings only bump Dropped.
const maxCFIViolations = 256

// CFIViolation is one runtime control-flow-integrity finding.
type CFIViolation struct {
	Kernel string
	// Instr is the instrumented-code instruction index of the site that
	// observed the violation (-1 for load-time findings).
	Instr int
	// Kind classifies the finding: "static" (load-time target-set
	// validation failed), "call-stack" (shadow/actual call stack
	// mismatch), "return-address" (call-stack entry outside the legal
	// return set), "ret-underflow", "div-stack" (shadow/actual divergence
	// stack mismatch or illegal frame), "sync-underflow".
	Kind string
	Msg  string
}

func (v CFIViolation) String() string {
	pos := ""
	if v.Instr >= 0 {
		pos = fmt.Sprintf("@%04x", sass.InsOffset(v.Instr))
	}
	return fmt.Sprintf("%s%s: cfi %s: %s", v.Kernel, pos, v.Kind, v.Msg)
}

// cfiKernel is the per-kernel shadow table: the legal target sets computed
// over the instrumented kernel plus the original→instrumented index map.
type cfiKernel struct {
	k       *sass.Kernel
	targets *cfi.Targets
	instOf  []int // original instruction index -> instrumented index
}

// cfiShadow is one warp's shadow control state, maintained independently
// of the machine by observing every control-transfer site.
type cfiShadow struct {
	call []int
	div  []sim.DivFrame
}

// CFIChecker validates warp control state against statically computed
// legal target sets — the runtime half of the protected-site CFI scheme.
// It audits the warp's call and divergence stacks at every
// control-transfer site (plus SSY), keeping a shadow copy of both stacks
// per warp: any corruption of a return address, a divergence frame, or
// stack discipline shows up as a divergence between shadow and actual
// state, or as an entry outside the legal sets.
//
// Usage: Instrument the program with Options(), then Prepare(prog) to
// build the shadow tables from the instrumented code, register Handler(),
// and run. Prepare fails closed: a program whose static CFI analysis
// reports errors is recorded as violated before any warp executes, the
// way a CFI loader rejects a binary that fails target-set validation.
type CFIChecker struct {
	mu      sync.Mutex
	kernels map[string]*cfiKernel
	shadows map[*sim.Warp]*cfiShadow

	violations []CFIViolation
	// Dropped counts violations beyond the log bound.
	Dropped int
}

// NewCFIChecker returns an empty checker.
func NewCFIChecker() *CFIChecker {
	return &CFIChecker{
		kernels: map[string]*cfiKernel{},
		shadows: map[*sim.Warp]*cfiShadow{},
	}
}

// Options returns the instrumentation this checker needs: a before-site at
// every control transfer and every SSY.
func (c *CFIChecker) Options() sassi.Options {
	return sassi.Options{
		Where:         sassi.BeforeControlXfer | sassi.BeforeSSY,
		BeforeHandler: CFIHandlerSymbol,
	}
}

// Prepare computes the per-kernel shadow tables from the instrumented
// program. Static CFI errors are recorded as load-time violations
// (fail-closed); the program still runs so dynamic findings accumulate on
// top.
func (c *CFIChecker) Prepare(prog *sass.Program) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range prog.Kernels {
		cfg, err := sass.BuildCFG(k)
		if err != nil {
			return fmt.Errorf("cfi: %s: build CFG: %w", k.Name, err)
		}
		targets, diags := cfi.Analyze(analysis.NewKernelFacts(cfg))
		for _, d := range analysis.Errors(diags) {
			c.record(CFIViolation{
				Kernel: k.Name, Instr: d.Instr, Kind: "static",
				Msg: "target-set validation failed: " + d.Msg,
			})
		}
		instOf := make([]int, 0, len(k.Instrs))
		for i := range k.Instrs {
			if !k.Instrs[i].Injected {
				instOf = append(instOf, i)
			}
		}
		c.kernels[k.Name] = &cfiKernel{k: k, targets: targets, instOf: instOf}
	}
	return nil
}

// Handler returns the checker's runtime handler.
func (c *CFIChecker) Handler() *sassi.Handler {
	return &sassi.Handler{Name: CFIHandlerSymbol, Fn: c.Audit}
}

// Audit is the handler body. It is exported so fault campaigns can compose
// it with an injector in one handler (the injector corrupts first, then
// the audit runs).
func (c *CFIChecker) Audit(w *device.Warp, args sassi.HandlerArgs) {
	var execMask uint32
	for l := w.First(); l >= 0; l = w.Next(l) {
		if args.BP.InstrWillExecute(l) {
			execMask |= 1 << uint(l)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.audit(w, args, execMask)
}

// Violations returns the findings so far (load-time and runtime).
func (c *CFIChecker) Violations() []CFIViolation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CFIViolation(nil), c.violations...)
}

// Reset clears findings and per-warp shadow state, keeping the prepared
// tables.
func (c *CFIChecker) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = nil
	c.Dropped = 0
	c.shadows = map[*sim.Warp]*cfiShadow{}
}

func (c *CFIChecker) record(v CFIViolation) {
	if len(c.violations) >= maxCFIViolations {
		c.Dropped++
		return
	}
	c.violations = append(c.violations, v)
}

// audit runs once per dispatch: it validates the warp's actual control
// state against the shadow and the legal sets, then models the site
// instruction's effect on the shadow. execMask is the set of lanes whose
// guard passes at the site.
func (c *CFIChecker) audit(ctx *device.Warp, args sassi.HandlerArgs, execMask uint32) {
	w := ctx.Sim()
	ck := c.kernels[w.CTA.Kernel.Name]
	if ck == nil {
		return // kernel not prepared (filtered instrumentation)
	}
	orig := sass.IndexOfOffset(args.BP.InsOffset())
	if orig < 0 || orig >= len(ck.instOf) {
		return
	}
	s := ck.instOf[orig]
	in := &ck.k.Instrs[s]

	sh := c.shadows[w]
	if sh == nil {
		// Every control op is a site, so a warp's first site is reached
		// with empty stacks; starting the shadow empty (not adopted from
		// the machine) means corruption before the first audit is caught.
		sh = &cfiShadow{}
		c.shadows[w] = sh
	}

	c.compareStacks(w, ck, s, sh)

	active := ctx.ActiveMask()
	alive := w.Alive
	switch {
	case in.Op == sass.OpCAL:
		if tgt, ok := in.BranchTarget(); ok && tgt.Kind == sass.OpdLabel {
			if !ck.targets.Entries[int(tgt.Imm)] {
				c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "call-stack",
					Msg: fmt.Sprintf("CAL target @%04x outside the legal entry set", sass.InsOffset(int(tgt.Imm)))})
			}
		}
		if execMask == active { // divergent CAL traps in the machine; model only the clean case
			sh.call = append(sh.call, s+1)
		}
	case in.Op == sass.OpRET:
		if w.CallDepth() == 0 {
			c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "ret-underflow",
				Msg: "RET with an empty call stack"})
		}
		if len(sh.call) > 0 {
			sh.call = sh.call[:len(sh.call)-1]
		}
	case in.Op == sass.OpSSY:
		if tgt, ok := in.BranchTarget(); ok && tgt.Kind == sass.OpdLabel {
			sh.div = append(sh.div, sim.DivFrame{SSY: true, PC: int(tgt.Imm), Mask: active})
		}
	case in.Op == sass.OpSYNC:
		if w.DivDepth() == 0 {
			c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "sync-underflow",
				Msg: "SYNC with an empty divergence stack (warp would silently retire)"})
		}
		// Mirror popToNonEmpty: frames are consumed until one holds live
		// lanes; that frame activates.
		for len(sh.div) > 0 {
			f := sh.div[len(sh.div)-1]
			sh.div = sh.div[:len(sh.div)-1]
			if f.Mask&alive != 0 {
				break
			}
		}
	case in.Op == sass.OpEXIT:
		for i := range sh.div {
			sh.div[i].Mask &^= execMask
		}
		if execMask == active {
			aliveAfter := alive &^ execMask
			for len(sh.div) > 0 {
				f := sh.div[len(sh.div)-1]
				sh.div = sh.div[:len(sh.div)-1]
				if f.Mask&aliveAfter != 0 {
					break
				}
			}
		}
	case in.Op == sass.OpBRA && !in.Guard.IsAlways():
		fall := active &^ execMask
		if execMask != 0 && fall != 0 {
			sh.div = append(sh.div, sim.DivFrame{SSY: false, PC: s + 1, Mask: fall})
		}
	}
}

// compareStacks validates the warp's actual call and divergence stacks
// against the shadow and the legal target sets. On a mismatch it records
// a violation and resynchronizes the shadow to the actual state, so one
// corruption yields one report instead of one per subsequent site.
func (c *CFIChecker) compareStacks(w *sim.Warp, ck *cfiKernel, s int, sh *cfiShadow) {
	mismatch := false
	if w.CallDepth() != len(sh.call) {
		c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "call-stack",
			Msg: fmt.Sprintf("call-stack depth %d, shadow %d", w.CallDepth(), len(sh.call))})
		mismatch = true
	} else {
		for i := 0; i < w.CallDepth(); i++ {
			if w.ReturnAddr(i) != sh.call[i] {
				c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "call-stack",
					Msg: fmt.Sprintf("call-stack[%d] = @%04x, shadow @%04x",
						i, sass.InsOffset(w.ReturnAddr(i)), sass.InsOffset(sh.call[i]))})
				mismatch = true
				break
			}
		}
	}
	for i := 0; i < w.CallDepth(); i++ {
		if !ck.targets.Legal(w.ReturnAddr(i)) {
			c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "return-address",
				Msg: fmt.Sprintf("call-stack[%d] = @%04x outside the legal return set",
					i, sass.InsOffset(w.ReturnAddr(i)))})
			mismatch = true
			break
		}
	}

	if w.DivDepth() != len(sh.div) {
		c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "div-stack",
			Msg: fmt.Sprintf("divergence-stack depth %d, shadow %d", w.DivDepth(), len(sh.div))})
		mismatch = true
	} else {
		for i := 0; i < w.DivDepth(); i++ {
			f := w.DivFrameAt(i)
			if f != sh.div[i] {
				c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "div-stack",
					Msg: fmt.Sprintf("divergence-stack[%d] = {ssy=%t pc=@%04x mask=%#x}, shadow {ssy=%t pc=@%04x mask=%#x}",
						i, f.SSY, sass.InsOffset(f.PC), f.Mask,
						sh.div[i].SSY, sass.InsOffset(sh.div[i].PC), sh.div[i].Mask)})
				mismatch = true
				break
			}
		}
	}
	for i := 0; i < w.DivDepth(); i++ {
		f := w.DivFrameAt(i)
		legal := ck.targets.Reconv[f.PC]
		if !f.SSY {
			legal = ck.targets.Defer[f.PC]
		}
		if !legal {
			c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "div-stack",
				Msg: fmt.Sprintf("divergence-stack[%d] resume @%04x outside the legal %s set",
					i, sass.InsOffset(f.PC), map[bool]string{true: "reconvergence", false: "deferred-path"}[f.SSY])})
			mismatch = true
			break
		}
		if f.Mask&^w.Alive != 0 {
			c.record(CFIViolation{Kernel: ck.k.Name, Instr: s, Kind: "div-stack",
				Msg: fmt.Sprintf("divergence-stack[%d] mask %#x includes exited lanes", i, f.Mask)})
			mismatch = true
			break
		}
	}

	if mismatch {
		sh.call = sh.call[:0]
		for i := 0; i < w.CallDepth(); i++ {
			sh.call = append(sh.call, w.ReturnAddr(i))
		}
		sh.div = sh.div[:0]
		for i := 0; i < w.DivDepth(); i++ {
			sh.div = append(sh.div, w.DivFrameAt(i))
		}
	}
}
