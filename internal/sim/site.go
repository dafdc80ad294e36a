package sim

import (
	"slices"

	"sassi/internal/mem"
	"sassi/internal/sass"
)

// siteEntry is the state of a launch's Twin.Site (TwinSite). A launch has
// one, since one warp holds the site's thread; only the goroutine of the SM
// that runs that warp writes it.
type siteEntry struct {
	pcs       []int32 // the twin's preKernel.sitePCs
	cta, warp int
	lane      uint32 // the thread's lane bit
	left      uint64 // site issues to go before the site
	phase     sitePhase
	leave     int              // siteBlock: the twin PC where the block ends
	sp        [WarpSize]uint32 // siteBlock: the stack pointer row at the site
}

// sitePhase is where the warp of a Twin.Site is.
type sitePhase uint8

const (
	siteBefore sitePhase = iota // the launched kernel, counting site issues
	siteBlock                   // the twin, in the site's after-block
	siteAfter                   // the launched kernel again
)

// stepSite is stepPre for the warp of the launch's Twin.Site.
func (e *engine) stepSite(w *Warp) error {
	s := e.twin.site
	if s.phase == siteBlock {
		if err := e.stepPre(w); err != nil {
			return err
		}
		if w.PC == s.leave && !s.comeBack(w, &e.base) {
			pc, _ := s.fromTwin(s.leave)
			return &SkippedFrameError{Kernel: e.stats.Kernel, CTA: w.CTA.Index, PC: pc,
				Reason: "the site's after-block ended with the stack pointer moved or a stack entry in injected code"}
		}
		return nil
	}
	pc, pre := w.PC, w.code.pre
	if w.Done || w.AtBarrier || pc < 0 || pc >= len(pre.ins) {
		return e.stepPre(w)
	}
	exec := w.guardExec(&pre.ins[pc])
	if s.phase == siteAfter && e.belowSP(w, &pre.k.Instrs[pc], exec) {
		return &SkippedFrameError{Kernel: e.stats.Kernel, CTA: w.CTA.Index, PC: pc,
			Reason: "local load below the stack pointer after skipped after-blocks"}
	}
	if err := e.stepPre(w); err != nil {
		return err
	}
	weight := uint64(s.pcs[pc+1] - s.pcs[pc] - 1)
	if weight == 0 {
		return nil
	}
	if s.phase == siteBefore && exec&s.lane != 0 {
		if s.left == 0 {
			s.enter(w, &e.twin.warpCode, pc)
			return nil
		}
		s.left--
	}
	// The block this issue skips, charged as if it had run.
	st := &e.sms[w.CTA.SM]
	w.DynWarpInstrs += weight
	st.maxWarpInstrs = max(st.maxWarpInstrs, w.DynWarpInstrs)
	if w.DynWarpInstrs > e.dev.Cfg.WatchdogWarpInstrs {
		return e.fail(w, ErrHang, "watchdog: warp exceeded %d instructions", e.dev.Cfg.WatchdogWarpInstrs)
	}
	return nil
}

// enter moves w, which has just executed the site at pc of the launched
// kernel, to the first instruction of the site's after-block in twin. The
// warp has run nothing but the launched kernel, so every PC on its stacks
// is a label, a return address or the kernel's end: an index into pcs.
func (s *siteEntry) enter(w *Warp, twin *warpCode, pc int) {
	s.phase, s.leave, s.sp = siteBlock, int(s.pcs[pc+1]), *w.row(sass.SP)
	w.code = twin
	w.PC = int(s.pcs[pc]) + 1
	for i := range w.Stack {
		w.Stack[i].pc = int(s.pcs[w.Stack[i].pc])
	}
	for i, pc := range w.CallStack {
		w.CallStack[i] = int(s.pcs[pc])
	}
}

// comeBack moves w, at the end of the site's after-block, back to base at
// the instruction after the site. It reports false, w half moved, if the
// block left the stack pointer row changed or a stack entry with no
// instruction of base to go back to: base cannot then stand in for the
// after-blocks w would run next.
func (s *siteEntry) comeBack(w *Warp, base *warpCode) bool {
	if *w.row(sass.SP) != s.sp {
		return false
	}
	var ok bool
	for i := range w.Stack {
		if w.Stack[i].pc, ok = s.fromTwin(w.Stack[i].pc); !ok {
			return false
		}
	}
	for i := range w.CallStack {
		if w.CallStack[i], ok = s.fromTwin(w.CallStack[i]); !ok {
			return false
		}
	}
	w.PC, _ = s.fromTwin(w.PC)
	w.code = base
	s.phase = siteAfter
	return true
}

// fromTwin maps a PC of the twin back to the launched kernel's, false for
// one that is not the place of an instruction of that kernel or its end.
func (s *siteEntry) fromTwin(pc int) (int, bool) {
	return slices.BinarySearch(s.pcs, int32(pc))
}

// belowSP reports whether in, a load of the launched kernel, reads local
// memory below the stack pointer in some lane of exec.
func (e *engine) belowSP(w *Warp, in *sass.Instruction, exec uint32) bool {
	if exec == 0 || in.Op != sass.OpLDL && in.Op != sass.OpLD {
		return false
	}
	ref, err := memRef(in)
	if err != nil {
		return false // the load fails as it would have
	}
	sp := w.row(sass.SP)
	for m := exec; m != 0; m &= m - 1 {
		l := lane(m)
		off := e.laneAddr(&w.threads[l], in, ref)
		if in.Op == sass.OpLD {
			space, local := mem.Decode(off)
			if space != mem.SpaceLocal {
				continue
			}
			off = local
		}
		if off < uint64(sp[l]) {
			return true
		}
	}
	return false
}
