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
//
// Its architectural state is stored warp-major, the way the hardware's
// register file and local memory lay it out: one row of 32 lane words per
// register (regs[r*32+lane]), one 32-bit lane mask per predicate, and one
// stack for all lanes interleaved by word (mem.WarpLocal). Registers, the
// scoreboard, the threads and the stack descriptor are carved from the
// CTA's slab. Thread is a lane's view of it.
//
// The kernel is a property of the warp: with a Twin, warps of one CTA may
// run different kernels, each with its own register count, local bytes,
// predecoded stream and handler table.
type Warp struct {
	CTA     *CTA
	IDinCTA int

	// code is what the warp runs (Kernel).
	code *warpCode

	PC     int
	Active uint32 // lanes executing at PC
	Alive  uint32 // lanes that have not EXITed

	Stack     []divEntry
	CallStack []int

	AtBarrier bool
	Done      bool

	DynWarpInstrs uint64

	threads []Thread  // lanes 0..len-1; fewer than 32 in a partial trailing warp
	regs    []uint32  // regs[r*32+lane]
	preds   [8]uint32 // lane mask per predicate; preds[PT] is all lanes
	cc      [WarpSize]uint8
	local   *mem.WarpLocal

	// Scoreboard state for the stall model: clock is the warp's local
	// issue clock, readyAt[slot] the clock value at which the register
	// behind slot is readable without a stall. Slots are the GPRs the
	// kernel names, then the seven predicates, then the CC (predecode,
	// sbPred, sbCC). Both live in the warp so the model is per-warp
	// deterministic: cycles do not depend on how SMs or sibling warps
	// interleave, which keeps parallel and sequential engines bit-equal.
	clock   uint64
	readyAt []uint64
}

// sbPred returns the scoreboard slot of predicate p, sbCC that of the CC:
// the eight slots after the GPRs.
func (w *Warp) sbPred(p uint8) int { return len(w.readyAt) - sbTail + int(p) }
func (w *Warp) sbCC() int          { return len(w.readyAt) - 1 }

// sbTail is the number of scoreboard slots after the GPRs: P0..P6, CC.
const sbTail = sass.NumPred + 1

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
		consider(w.sbPred(in.Guard.Reg))
	}
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdPred && s.Reg != sass.PT {
			consider(w.sbPred(s.Reg))
		}
	}
	if in.Mods.X {
		consider(w.sbCC())
	}
	if in.Mods.SetCC {
		consider(w.sbCC())
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
			w.readyAt[w.sbPred(d.Reg)] = retire
		}
	}
	if in.Mods.SetCC {
		w.readyAt[w.sbCC()] = retire
	}
	return stall
}

// row returns register r's row of lane words; r must not be RZ.
func (w *Warp) row(r uint8) *[WarpSize]uint32 {
	return (*[WarpSize]uint32)(w.regs[int(r)*WarpSize:])
}

// writePreds sets predicate p to v in the lanes of mask (writes to PT are
// dropped).
func (w *Warp) writePreds(p uint8, mask, v uint32) {
	if p != sass.PT {
		w.preds[p] = w.preds[p]&^mask | v&mask
	}
}

// spread8[b] has bit i of b in bit 0 of byte i: one byte of a lane mask
// transposed into eight lane bytes.
var spread8 = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// predBytes transposes the predicate masks into P2R's per-lane bytes: byte
// l of the result (eight lanes per word) has bit n set where Pn holds in
// lane l, bit 7 (PT) always.
func (w *Warp) predBytes() (b [WarpSize / 8]uint64) {
	for p, m := range w.preds {
		for g := range b {
			b[g] |= spread8[uint8(m>>(8*g))] << p
		}
	}
	return b
}

// setPredBytes is predBytes' inverse for the lanes of mask: their P0..P6
// are set from their bytes of b; PT stays set.
func (w *Warp) setPredBytes(b *[WarpSize / 8]uint64, mask uint32) {
	for p := range w.preds[:sass.PT] {
		var v uint32
		for g, x := range b {
			// Bit 0 of each byte gathered into the top byte.
			v |= uint32((x>>p&0x0101010101010101)*0x0102040810204080>>56) << (8 * g)
		}
		w.preds[p] = w.preds[p]&^mask | v&mask
	}
}

// LocalMaterialized returns how many bytes of stack storage the warp holds
// for all its lanes together (see mem.WarpLocal).
func (w *Warp) LocalMaterialized() int { return w.local.Materialized() }

// Row-grain reads for handler dispatch: what the lanes of a non-empty mask
// hold, read without a Thread view per lane.

// UniformReg returns the value every lane of mask holds in GPR r, when they
// agree.
func (w *Warp) UniformReg(r uint8, mask uint32) (uint32, bool) {
	return rowUniform(w.srcRegRow(r), mask)
}

// ReadRegs sets dst[l] to lane l's GPR r for every lane l of mask.
func (w *Warp) ReadRegs(r uint8, mask uint32, dst *[WarpSize]uint32) {
	src := w.srcRegRow(r)
	if mask == ^uint32(0) {
		*dst = *src
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		l := lane(m)
		dst[l] = src[l]
	}
}

// LoadLocal sets dst[l] to the word at offset off of lane l's local memory
// for every lane l of mask: one bounds check for all of them, which fails
// with the fault each lane's ReadLocal32 would return.
func (w *Warp) LoadLocal(mask uint32, off uint64, dst *[WarpSize]uint32) error {
	return w.local.LoadRow(mask, off, dst)
}

// Kernel returns the (possibly instrumented) kernel the warp executes —
// handlers that keep per-kernel shadow state key off it.
func (w *Warp) Kernel() *sass.Kernel { return w.code.k }

// ActiveMask returns the current active lane mask.
func (w *Warp) ActiveMask() uint32 { return w.Active }

// NumActive returns the number of active lanes.
func (w *Warp) NumActive() int { return bits.OnesCount32(w.Active) }

// Thread returns the thread in the given lane (nil in a partial trailing
// warp's lanes past the CTA's last thread).
func (w *Warp) Thread(lane int) *Thread {
	if lane < len(w.threads) {
		return &w.threads[lane]
	}
	return nil
}

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
	Index  int // flat CTA index within the grid
	Shared *mem.Shared
	Warps  []*Warp
	SM     int

	// traceStart is the SM-cycle count when the CTA became resident (used
	// only when the device records a trace).
	traceStart uint64
	// slab is the arena slab backing this CTA's warps' state; returned to
	// the arena at retirement.
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
