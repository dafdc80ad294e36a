package sim

import (
	"math/bits"

	"sassi/internal/mem"
	"sassi/internal/sass"
)

// divKind distinguishes divergence-stack entry types.
type divKind uint8

const (
	divSSY divKind = iota // reconvergence token pushed by SSY
	divDEF                // deferred alternate path pushed by a divergent branch
)

// divEntry is one divergence-stack entry: a mask of lanes and the PC where
// they resume.
type divEntry struct {
	kind divKind
	pc   int
	mask uint32
}

// Warp is a group of 32 threads executing in lockstep from a shared PC.
type Warp struct {
	CTA     *CTA
	IDinCTA int

	PC     int
	Active uint32 // lanes executing at PC
	Alive  uint32 // lanes that have not EXITed

	Stack     []divEntry
	CallStack []int

	Threads [WarpSize]*Thread

	AtBarrier bool
	Done      bool

	DynWarpInstrs uint64

	// Scoreboard state for the stall model: clock is the warp's local
	// issue clock, readyAt[slot] the clock value at which the register
	// behind slot (GPRs 0..254, then predicates, then CC — the same
	// regspace layout internal/analysis uses) is readable without a
	// stall. Both live in the warp so the model is per-warp deterministic:
	// cycles do not depend on how SMs or sibling warps interleave, which
	// keeps parallel and sequential engines bit-equal.
	clock   uint64
	readyAt [sbSlots]uint64
}

// Scoreboard slot layout: one slot per GPR, per predicate, plus the CC.
const (
	sbPredBase = sass.NumGPR
	sbCCSlot   = sbPredBase + sass.NumPred
	sbSlots    = sbCCSlot + 1
)

// scoreboard charges the warp's issue-stage hazards for in: it computes
// the read-after-write/write-after-write stall against readyAt, advances
// the warp clock past the stall and the issue cost, and records when the
// instruction's own results become readable. cost is the final issue cost
// including any dynamic memory charge. The returned stall is added to the
// SM's busy cycles by the caller.
func (w *Warp) scoreboard(in *sass.Instruction, cost int) (stall uint64) {
	var buf [24]uint8
	ready := uint64(0)
	consider := func(slot int) {
		if r := w.readyAt[slot]; r > ready {
			ready = r
		}
	}
	for _, r := range in.AppendGPRSrcs(buf[:0]) {
		if r != sass.RZ {
			consider(int(r))
		}
	}
	for _, p := range in.AppendGPRDsts(buf[:0]) {
		if p != sass.RZ {
			consider(int(p)) // WAW: the previous write must retire first
		}
	}
	if !in.Guard.IsAlways() && in.Guard.Reg != sass.PT {
		consider(sbPredBase + int(in.Guard.Reg))
	}
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdPred && s.Reg != sass.PT {
			consider(sbPredBase + int(s.Reg))
		}
	}
	if in.Mods.X {
		consider(sbCCSlot)
	}
	if in.Mods.SetCC {
		consider(sbCCSlot)
	}
	if ready > w.clock {
		stall = ready - w.clock
	}
	issue := w.clock + stall
	w.clock = issue + uint64(cost)
	retire := w.clock + uint64(sass.ResultLatency(in))
	for _, d := range in.AppendGPRDsts(buf[:0]) {
		if d != sass.RZ {
			w.readyAt[d] = retire
		}
	}
	for _, d := range in.Dsts {
		if d.Kind == sass.OpdPred && d.Reg != sass.PT {
			w.readyAt[sbPredBase+int(d.Reg)] = retire
		}
	}
	if in.Mods.SetCC {
		w.readyAt[sbCCSlot] = retire
	}
	return stall
}

// ActiveMask returns the current active lane mask.
func (w *Warp) ActiveMask() uint32 { return w.Active }

// NumActive returns the number of active lanes.
func (w *Warp) NumActive() int { return bits.OnesCount32(w.Active) }

// Thread returns the thread in the given lane (may be nil in a partial
// trailing warp).
func (w *Warp) Thread(lane int) *Thread { return w.Threads[lane] }

// Lanes iterates the set bits of mask, calling fn with each lane index in
// ascending order.
func Lanes(mask uint32, fn func(lane int)) {
	for m := mask; m != 0; m &= m - 1 {
		fn(bits.TrailingZeros32(m))
	}
}

// exitLanes removes lanes from the warp entirely (EXIT semantics): from the
// active and alive masks and from every divergence-stack entry.
func (w *Warp) exitLanes(mask uint32) {
	w.Active &^= mask
	w.Alive &^= mask
	for i := range w.Stack {
		w.Stack[i].mask &^= mask
	}
}

// popToNonEmpty pops divergence-stack entries until one yields a non-empty
// live mask, activating it. It reports false when the warp has fully
// retired.
func (w *Warp) popToNonEmpty() bool {
	for len(w.Stack) > 0 {
		e := w.Stack[len(w.Stack)-1]
		w.Stack = w.Stack[:len(w.Stack)-1]
		m := e.mask & w.Alive
		if m != 0 {
			w.Active = m
			w.PC = e.pc
			return true
		}
	}
	w.Done = w.Alive == 0
	if !w.Done && w.Active == 0 {
		// No stack entries but live lanes with empty active mask cannot
		// happen in well-formed programs; mark done defensively.
		w.Done = true
	}
	return !w.Done && w.Active != 0
}

// DivFrame is the exported view of one divergence-stack entry, used by
// instrumentation handlers that audit warp control state (the CFI checker)
// and by the control-state fault injector.
type DivFrame struct {
	// SSY marks a reconvergence token (pushed by SSY); false marks a
	// deferred alternate path pushed by a divergent branch.
	SSY  bool
	PC   int
	Mask uint32
}

// DivDepth returns the divergence-stack depth.
func (w *Warp) DivDepth() int { return len(w.Stack) }

// DivFrameAt returns divergence-stack entry i (0 is the bottom).
func (w *Warp) DivFrameAt(i int) DivFrame {
	e := w.Stack[i]
	return DivFrame{SSY: e.kind == divSSY, PC: e.pc, Mask: e.mask}
}

// SetDivFramePC overwrites the resume PC of divergence-stack entry i —
// fault-injection only.
func (w *Warp) SetDivFramePC(i, pc int) { w.Stack[i].pc = pc }

// SetDivFrameMask overwrites the lane mask of divergence-stack entry i —
// fault-injection only.
func (w *Warp) SetDivFrameMask(i int, mask uint32) { w.Stack[i].mask = mask }

// CallDepth returns the call-stack depth.
func (w *Warp) CallDepth() int { return len(w.CallStack) }

// ReturnAddr returns call-stack entry i (0 is the bottom, i.e. the
// outermost frame's return address).
func (w *Warp) ReturnAddr(i int) int { return w.CallStack[i] }

// SetReturnAddr overwrites call-stack entry i — fault-injection only.
func (w *Warp) SetReturnAddr(i, pc int) { w.CallStack[i] = pc }

// PushReturnAddr pushes a forged frame onto the call stack —
// fault-injection only (models a spurious/rewritten call).
func (w *Warp) PushReturnAddr(pc int) { w.CallStack = append(w.CallStack, pc) }

// CTA is one cooperative thread array (thread block) resident on an SM.
type CTA struct {
	Index            int // flat CTA index within the grid
	CtaX, CtaY, CtaZ uint32
	Shared           *mem.Shared
	Warps            []*Warp
	SM               int
	// Kernel is the (possibly instrumented) kernel this CTA executes —
	// handlers that keep per-kernel shadow state key off it.
	Kernel *sass.Kernel
	// pre is Kernel's predecoded form (nil under the reference
	// interpreter).
	pre *preKernel

	// traceStart is the SM-cycle count when the CTA became resident (used
	// only when the device records a trace).
	traceStart uint64
	// slab is the arena slab backing this CTA's threads (predecoded
	// engine only); returned to the arena at retirement.
	slab *ctaSlab
}

// liveWarps returns the warps that are neither done nor nil.
func (c *CTA) liveWarps() int {
	n := 0
	for _, w := range c.Warps {
		if !w.Done {
			n++
		}
	}
	return n
}

// barrierReady reports whether every live warp has arrived at the barrier.
func (c *CTA) barrierReady() bool {
	for _, w := range c.Warps {
		if !w.Done && !w.AtBarrier {
			return false
		}
	}
	return true
}

// releaseBarrier lets all warps proceed past the barrier.
func (c *CTA) releaseBarrier() {
	for _, w := range c.Warps {
		w.AtBarrier = false
	}
}
