package sim

import (
	"encoding/binary"
	"math"
	"math/bits"

	"sassi/internal/mem"
	"sassi/internal/sass"
)

// stepPre executes one instruction for warp w: the execution core's issue
// loop. It is step() with the hot pieces swapped for their predecoded forms:
// the guard is one AND of a predicate's lane mask with the active mask,
// operand kinds are resolved, the scoreboard walks precomputed slot lists,
// and specialized classes execute as row kernels over the executing lanes'
// register rows. All accounting — issue counters, watchdog, cycles, stalls,
// PC samples — matches step() field for field.
func (e *engine) stepPre(w *Warp) error {
	if w.Done || w.AtBarrier {
		return nil
	}
	pre := w.code.pre
	if w.PC < 0 || w.PC >= len(pre.ins) {
		return e.fail(w, ErrInvalid, "PC out of range (fell off kernel end)")
	}
	st := &e.sms[w.CTA.SM]
	pcIdx := w.PC
	p := &pre.ins[pcIdx]
	var divBefore uint64
	if st.samp != nil {
		divBefore = st.divergentBranches
	}
	w.DynWarpInstrs++
	if w.DynWarpInstrs > st.maxWarpInstrs {
		st.maxWarpInstrs = w.DynWarpInstrs
	}
	if w.DynWarpInstrs > e.dev.Cfg.WatchdogWarpInstrs {
		return e.fail(w, ErrHang, "watchdog: warp exceeded %d instructions", e.dev.Cfg.WatchdogWarpInstrs)
	}

	exec := w.guardExec(p)

	// Issue accounting.
	st.warpInstrs++
	nexec := bits.OnesCount32(exec)
	st.threadInstrs += uint64(nexec)
	if e.probe != nil {
		e.probe.issue(w, pcIdx, exec)
	}
	if p.flags&pfInjected != 0 {
		st.injectedWarpInstrs++
		st.injectedThreadInstrs += uint64(nexec)
	}
	cost := int(p.staticCost)
	advance := true
	var err error
	switch {
	case p.class == pcGeneric:
		advance, cost, err = e.execOp(w, &pre.k.Instrs[pcIdx], exec, cost)
	case p.class < pcMemG:
		e.execPreALU(w, p, exec)
	case p.class <= pcMemL:
		var memCost int
		memCost, err = e.execPreMem(w, p, exec)
		cost += memCost
	case p.class == pcIADDC:
		e.execPreIADDC(w, p, exec)
	case p.class == pcPSETP:
		e.execPrePSETP(w, p, exec)
	case p.class == pcP2R || p.class == pcR2P:
		e.execPreP2R(w, p, exec)
	case p.class == pcBRA:
		advance = false
		e.execPreBRA(w, exec, p.target)
	case p.class == pcJCAL:
		err = e.callHandler(w, w.code.handlerIDs[p.target], pre.syms[p.target])
		cost += e.dev.Cfg.HandlerBodyCost
	case p.class == pcFault:
		if exec != 0 {
			err = e.srcFault(w, &pre.k.Instrs[pcIdx], exec)
		}
	default: // pcSYNC
		advance = false
		if !w.popToNonEmpty() {
			w.Done = true
		}
	}

	if err != nil {
		return e.failCause(w, err)
	}
	if advance {
		w.PC++
	}
	slots := pre.slots[p.sb:]
	stall := w.scoreboardPre(slots[:p.nsrc], slots[p.nsrc:][:p.ndst], p.resLat, cost)
	st.cycles += uint64(cost) + stall
	st.scoreboardStalls += stall
	if st.samp != nil && st.cycles >= st.sampNext {
		e.takeSample(st, w, pcIdx, &pre.k.Instrs[pcIdx], nexec, cost, stall, divBefore)
	}
	return nil
}

// guardExec is the lanes of the active mask in which p's guard passes.
func (w *Warp) guardExec(p *preInstr) uint32 {
	if p.flags&pfGuardAlways != 0 {
		return w.Active
	}
	return w.Active & w.predMask(p.guardReg, p.flags&pfGuardNeg != 0)
}

// scoreboardPre is Warp.scoreboard over an instruction's precomputed slot
// lists, src the consider set and dst the retire set, and its result
// latency: same hazard model, no per-step operand walks.
func (w *Warp) scoreboardPre(src, dst []uint16, resLat uint8, cost int) (stall uint64) {
	ready := uint64(0)
	for _, s := range src {
		if r := w.readyAt[s]; r > ready {
			ready = r
		}
	}
	if ready > w.clock {
		stall = ready - w.clock
	}
	w.clock += stall + uint64(cost)
	retire := w.clock + uint64(resLat)
	for _, d := range dst {
		w.readyAt[d] = retire
	}
	return stall
}

// srcFault returns the error the first lane of exec meets reading in's
// value sources in order — what an ALU instruction of class pcFault fails
// with before it writes anything.
func (e *engine) srcFault(w *Warp, in *sass.Instruction, exec uint32) error {
	t := &w.threads[lane(exec)]
	for _, o := range in.Srcs[:valueSrcs(in.Op)] {
		if _, err := e.ReadSrc(t, o); err != nil {
			return err
		}
	}
	return nil
}

// zeroRow is what RZ reads in every lane.
var zeroRow [WarpSize]uint32

// opnd is one source of a row kernel: lane l reads row[l&mask]. A register
// row or a materialised scratch row has mask WarpSize-1; a lane-invariant
// value sits in row[0] with mask 0.
type opnd struct {
	row  *[WarpSize]uint32
	mask int
}

func (o opnd) at(l int) uint32 { return o.row[l&o.mask&(WarpSize-1)] }

// lane returns the lowest lane of a non-empty mask.
func lane(m uint32) int { return bits.TrailingZeros32(m) & (WarpSize - 1) }

// srcRow resolves source s for the lanes of exec: the register's row, or
// scratch holding a lane-invariant value (RZ, an immediate, a
// constant-bank word, a predicate equal over exec) or the special-register
// or predicate values of exec's lanes. Constant-bank offsets were
// validated at predecode, so nothing here can fault.
func (e *engine) srcRow(w *Warp, s *preSrc, exec uint32, scratch *[WarpSize]uint32) opnd {
	switch s.kind {
	case psReg:
		return opnd{w.row(s.reg), WarpSize - 1}
	case psImm:
		scratch[0] = s.imm
	case psCMem:
		scratch[0] = binary.LittleEndian.Uint32(e.cb[s.off:])
	case psSR:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			scratch[l] = e.readSR(&w.threads[l], s.sr)
		}
		return opnd{scratch, WarpSize - 1}
	case psPred:
		v := w.predMask(s.reg, s.neg)
		switch v & exec {
		case exec:
			scratch[0] = 1
		case 0:
			scratch[0] = 0
		default:
			for m := exec; m != 0; m &= m - 1 {
				l := lane(m)
				scratch[l] = v >> l & 1
			}
			return opnd{scratch, WarpSize - 1}
		}
	default: // psZero
		scratch[0] = 0
	}
	return opnd{scratch, 0}
}

// predMask returns predicate p's lane mask, complemented when neg.
func (w *Warp) predMask(p uint8, neg bool) uint32 {
	if neg {
		return ^w.preds[p]
	}
	return w.preds[p]
}

// srcRegRow returns register r's row for reading (RZ reads zero).
func (w *Warp) srcRegRow(r uint8) *[WarpSize]uint32 {
	if r == sass.RZ {
		return &zeroRow
	}
	return w.row(r)
}

// dstRow returns register r's row for writing, or sink for RZ.
func (w *Warp) dstRow(r uint8, sink *[WarpSize]uint32) *[WarpSize]uint32 {
	if r == sass.RZ {
		return sink
	}
	return w.row(r)
}

// aluRow is the lane kernel of every class execPreALU runs but SETP:
// d[l] = op(a[l], b[l], c[l]) for each lane l of exec, a predicate selector
// reading as c[l] != 0. The class and modifier switches sit outside the
// lane loops. It is the core's one statement of these classes' semantics;
// package simref's lane interpreter is the independent other.
func aluRow(p *preInstr, exec uint32, a, b, c opnd, d *[WarpSize]uint32) {
	switch p.class {
	case pcMOV:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a.at(l)
		}
	case pcIADD:
		neg := p.negB
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			y := b.at(l)
			if neg {
				y = -y
			}
			d[l] = a.at(l) + y
		}
	case pcIMUL:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a.at(l) * b.at(l)
		}
	case pcIMAD:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a.at(l)*b.at(l) + c.at(l)
		}
	case pcISCADD:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a.at(l)<<(c.at(l)&31) + b.at(l)
		}
	case pcSHL:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			x, y := a.at(l), b.at(l)
			v := uint32(0)
			if y < 32 {
				v = x << y
			}
			d[l] = v
		}
	case pcSHR:
		unsigned := p.unsigned
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			x, y := a.at(l), b.at(l)
			var v uint32
			switch {
			case unsigned && y < 32:
				v = x >> y
			case unsigned:
			case y >= 32:
				v = u32(i32(x) >> 31)
			default:
				v = u32(i32(x) >> y)
			}
			d[l] = v
		}
	case pcLOP:
		logic := p.logic
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			x, y := a.at(l), b.at(l)
			var v uint32
			switch logic {
			case sass.LogicAND:
				v = x & y
			case sass.LogicOR:
				v = x | y
			case sass.LogicXOR:
				v = x ^ y
			case sass.LogicPASS:
				v = y
			case sass.LogicNOT:
				v = ^y
			}
			d[l] = v
		}
	case pcSEL:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			if c.at(l) != 0 {
				d[l] = a.at(l)
			} else {
				d[l] = b.at(l)
			}
		}
	case pcFADD:
		neg := p.negB
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			x, fb := a.at(l), f32(b.at(l))
			if neg {
				fb = -fb
			}
			d[l] = nanFirst(x, f32b(f32(x)+fb))
		}
	case pcFMUL:
		neg := p.negB
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			x, fb := a.at(l), f32(b.at(l))
			if neg {
				fb = -fb
			}
			d[l] = nanFirst(x, f32b(f32(x)*fb))
		}
	case pcFFMA:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = f32b(f32(a.at(l))*f32(b.at(l)) + f32(c.at(l)))
		}
	case pcIMNMX:
		unsigned := p.unsigned
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			x, y := a.at(l), b.at(l)
			less := i32(x) < i32(y)
			if unsigned {
				less = x < y
			}
			if less == (c.at(l) != 0) {
				d[l] = x
			} else {
				d[l] = y
			}
		}
	case pcFMNMX:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			x, y := a.at(l), b.at(l)
			if (f32(x) < f32(y)) == (c.at(l) != 0) {
				d[l] = x
			} else {
				d[l] = y
			}
		}
	case pcMUFU:
		fn := p.mufu
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = f32b(float32(mufuEval(fn, float64(f32(a.at(l))))))
		}
	case pcBFE:
		signed := !p.unsigned
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = bfe(a.at(l), b.at(l), signed)
		}
	case pcBFI:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			pos, n := bitField(b.at(l))
			mask := (uint32(1)<<n - 1) << pos // all ones for n == 32
			d[l] = c.at(l)&^mask | a.at(l)<<pos&mask
		}
	case pcFLO:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = uint32(31 - bits.LeadingZeros32(a.at(l))) // ~0 for 0
		}
	case pcPOPC:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = uint32(bits.OnesCount32(a.at(l)))
		}
	case pcF2I:
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			f := f32(a.at(l))
			switch {
			case f != f: // NaN
				d[l] = 0
			case f >= 1<<31:
				d[l] = math.MaxInt32
			case f <= -1<<31:
				d[l] = 1 << 31
			default:
				d[l] = u32(int32(f))
			}
		}
	case pcI2F:
		unsigned := p.unsigned
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			x := a.at(l)
			if unsigned {
				d[l] = f32b(float32(x))
			} else {
				d[l] = f32b(float32(i32(x)))
			}
		}
	}
}

// nanFirst is the result r of a float add or multiply whose first operand
// is x: x quieted when x is a NaN, whatever the second operand is — which
// NaN the hardware operation returns when both are depends on the operand
// order the compiler picks, and the reference's order has x first.
func nanFirst(x, r uint32) uint32 {
	if x&0x7fffffff > 0x7f800000 {
		return x | 1<<22
	}
	return r
}

// bitField decodes a BFE/BFI field operand, pos | len<<8: the position
// clamped to 31 and the length to the bits left above it.
func bitField(b uint32) (pos, n uint32) {
	pos, n = min(b&0xff, 31), b>>8&0xff
	return pos, min(n, 32-pos)
}

// bfe extracts the n-bit field of x at pos, sign-extending its top bit
// when signed and the field is narrower than 32 bits; an empty field is 0.
func bfe(x, b uint32, signed bool) uint32 {
	pos, n := bitField(b)
	if n == 0 {
		return 0
	}
	v := x >> pos
	if n < 32 {
		v &= 1<<n - 1
		if signed && v>>(n-1) != 0 {
			v |= ^uint32(0) << n
		}
	}
	return v
}

// mufuEval evaluates one special-function-unit op; an out-of-enum
// function returns 0, as the reference does.
func mufuEval(fn sass.MufuFunc, x float64) float64 {
	switch fn {
	case sass.MufuRCP:
		return 1 / x
	case sass.MufuRSQ:
		return 1 / math.Sqrt(x)
	case sass.MufuSQRT:
		return math.Sqrt(x)
	case sass.MufuSIN:
		return math.Sin(x)
	case sass.MufuCOS:
		return math.Cos(x)
	case sass.MufuEX2:
		return math.Exp2(x)
	case sass.MufuLG2:
		return math.Log2(x)
	}
	return 0
}

// setpRow is the ISETP/FSETP lane kernel: over the lanes of exec it
// compares a with b and combines the result with the predicate c, giving
// the primary and complement destinations' lane masks.
func setpRow(p *preInstr, exec uint32, a, b, c opnd) (v, vq uint32) {
	fsetp := p.class == pcFSETP
	var cmp, sel uint32
	for m := exec; m != 0; m &= m - 1 {
		l := lane(m)
		if setpCmp(a.at(l), b.at(l), fsetp, p.unsigned, p.cmp) {
			cmp |= 1 << l
		}
		if c.at(l) != 0 {
			sel |= 1 << l
		}
	}
	switch p.logic {
	case sass.LogicAND:
		return cmp & sel, ^cmp & sel
	case sass.LogicOR:
		return cmp | sel, ^cmp | sel
	case sass.LogicXOR:
		return cmp ^ sel, ^cmp ^ sel
	}
	return cmp, ^cmp
}

// setpCmp evaluates the SETP comparison for one lane. Floats compare
// unordered against NaN: every relation but NE is false, which deriving LE
// and GE from LT, EQ and GT preserves.
func setpCmp(a, b uint32, fsetp, unsigned bool, op sass.CmpOp) bool {
	var lt, eq, gt bool
	switch {
	case fsetp:
		fa, fb := f32(a), f32(b)
		lt, eq, gt = fa < fb, fa == fb, fa > fb
	case unsigned:
		lt, eq, gt = a < b, a == b, a > b
	default:
		lt, eq, gt = i32(a) < i32(b), a == b, i32(a) > i32(b)
	}
	switch op {
	case sass.CmpLT:
		return lt
	case sass.CmpLE:
		return lt || eq
	case sass.CmpGT:
		return gt
	case sass.CmpGE:
		return gt || eq
	case sass.CmpEQ:
		return eq
	case sass.CmpNE:
		return !eq
	}
	return false
}

// execPreALU runs one instruction of a class from pcMOV to pcI2F over the
// executing lanes through its row kernel: setpRow for SETP, else aluRow.
func (e *engine) execPreALU(w *Warp, p *preInstr, exec uint32) {
	if exec == 0 {
		return
	}
	rows := &w.CTA.slab.rows
	a := e.srcRow(w, &p.srcs[0], exec, &rows[0])
	b := e.srcRow(w, &p.srcs[1], exec, &rows[1])
	c := e.srcRow(w, &p.srcs[2], exec, &rows[2])
	if p.class == pcISETP || p.class == pcFSETP {
		v, vq := setpRow(p, exec, a, b, c)
		w.writePreds(p.dstP, exec, v)
		w.writePreds(p.dstQ, exec, vq)
		return
	}
	aluRow(p, exec, a, b, c, w.dstRow(p.dst, &rows[3]))
}

// execPreIADDC is the CC-carrying IADD row kernel (IADD with .X/.CC
// honored): consume the carry bit when pfX is set, and
// recompute the full condition code when pfSetCC is set.
func (e *engine) execPreIADDC(w *Warp, p *preInstr, exec uint32) {
	rows := &w.CTA.slab.rows
	a := e.srcRow(w, &p.srcs[0], exec, &rows[0])
	b := e.srcRow(w, &p.srcs[1], exec, &rows[1])
	d := w.dstRow(p.dst, &rows[3])
	setCC := p.flags&pfSetCC != 0
	useX := p.flags&pfX != 0
	neg := p.negB
	for m := exec; m != 0; m &= m - 1 {
		l := lane(m)
		x, y := a.at(l), b.at(l)
		if neg {
			y = -y
		}
		sum := uint64(x) + uint64(y)
		if useX && w.cc[l]&CCCarry != 0 {
			sum++
		}
		r := uint32(sum)
		if setCC {
			cc := uint8(0)
			if r == 0 {
				cc |= CCZero
			}
			if int32(r) < 0 {
				cc |= CCSign
			}
			if sum>>32 != 0 {
				cc |= CCCarry
			}
			if (x^y)&0x8000_0000 == 0 && (x^r)&0x8000_0000 != 0 {
				cc |= CCOvf
			}
			w.cc[l] = cc
		}
		d[l] = r
	}
}

// execPrePSETP is predicate logic on lane masks: combine two source
// predicates and write the primary destination only; an operator outside
// AND/OR/XOR passes the first.
func (e *engine) execPrePSETP(w *Warp, p *preInstr, exec uint32) {
	a := w.predMask(p.srcs[0].reg, p.srcs[0].neg)
	b := w.predMask(p.srcs[1].reg, p.srcs[1].neg)
	switch p.logic {
	case sass.LogicAND:
		a &= b
	case sass.LogicOR:
		a |= b
	case sass.LogicXOR:
		a ^= b
	}
	w.writePreds(p.dstP, exec, a)
}

// execPreP2R is the row kernel of both predicate/CC shuttles: P2R merges the predicate file — the
// condition code with .X — into a GPR under a mask, R2P writes it back.
func (e *engine) execPreP2R(w *Warp, p *preInstr, exec uint32) {
	rows := &w.CTA.slab.rows
	a := e.srcRow(w, &p.srcs[0], exec, &rows[0])
	mask := e.srcRow(w, &p.srcs[1], exec, &rows[1])
	cc := p.flags&pfX != 0
	var pb [WarpSize / 8]uint64 // every lane's predicate file, as P2R reads it
	if !cc {
		pb = w.predBytes()
	}
	if p.class == pcP2R {
		d := w.dstRow(p.dst, &rows[3])
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			src := uint32(uint8(pb[l/8] >> (8 * (l % 8))))
			if cc {
				src = uint32(w.cc[l])
			}
			mk := mask.at(l)
			d[l] = a.at(l)&^mk | src&mk
		}
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		l := lane(m)
		v, mk := uint8(a.at(l)), uint8(mask.at(l))
		if cc {
			w.cc[l] = w.cc[l]&^mk | v&mk&0xf
			continue
		}
		// PT (bit 7) is not writable.
		mk &= 0x7f
		sh := 8 * (l % 8)
		old := uint8(pb[l/8] >> sh)
		pb[l/8] = pb[l/8]&^(0xff<<sh) | uint64(old&^mk|v&mk)<<sh
	}
	if !cc {
		w.setPredBytes(&pb, exec)
	}
}

// execPreBRA is execBranch with the label target resolved at predecode.
func (e *engine) execPreBRA(w *Warp, taken uint32, target int32) {
	fall := w.Active &^ taken
	switch {
	case taken == 0:
		w.PC++
	case fall == 0:
		w.PC = int(target)
	default:
		// Divergence: defer the fall-through lanes, run the taken path.
		w.Stack = append(w.Stack, divEntry{kind: divDEF, pc: w.PC + 1, mask: fall})
		w.Active = taken
		w.PC = int(target)
		e.sms[w.CTA.SM].divergentBranches++
	}
}

// laneAddrs computes the effective address of the memory operand for
// every lane of exec (laneAddr over register rows).
func (w *Warp) laneAddrs(p *preInstr, exec uint32, addrs *[WarpSize]uint64) {
	off := uint64(p.memOff)
	lo, hi := &zeroRow, &zeroRow
	if p.memBase != sass.RZ {
		lo = w.row(p.memBase)
		if p.memE {
			hi = w.srcRegRow(p.memBase + 1)
		}
	}
	for m := exec; m != 0; m &= m - 1 {
		l := lane(m)
		addrs[l] = (uint64(lo[l]) | uint64(hi[l])<<32) + off
	}
}

// uniformAddr returns the address of p's memory operand when every lane of
// exec computes the same one — decided from the address registers' rows,
// not from the value lattice, since a flipped bit in one lane's base
// register makes that lane diverge.
func (w *Warp) uniformAddr(p *preInstr, exec uint32) (uint64, bool) {
	off := uint64(p.memOff)
	if p.memBase == sass.RZ {
		return off, true
	}
	lo, ok := rowUniform(w.row(p.memBase), exec)
	if !ok {
		return 0, false
	}
	var hi uint32
	if p.memE {
		if hi, ok = rowUniform(w.srcRegRow(p.memBase+1), exec); !ok {
			return 0, false
		}
	}
	return (uint64(lo) | uint64(hi)<<32) + off, true
}

// rowUniform returns the value every lane of a non-empty exec holds in row,
// when they agree.
func rowUniform(row *[WarpSize]uint32, exec uint32) (uint32, bool) {
	v := row[lane(exec)]
	if exec == ^uint32(0) {
		return v, *(*[WarpSize - 1]uint32)(row[1:]) == *(*[WarpSize - 1]uint32)(row[:WarpSize-1])
	}
	for m := exec; m != 0; m &= m - 1 {
		if row[lane(m)] != v {
			return 0, false
		}
	}
	return v, true
}

// execPreMem dispatches the specialized memory classes.
func (e *engine) execPreMem(w *Warp, p *preInstr, exec uint32) (int, error) {
	if exec == 0 {
		return 1, nil
	}
	switch p.class {
	case pcMemS:
		return e.execPreShared(w, p, exec)
	case pcMemL:
		return e.execPreLocal(w, p, exec)
	}
	return e.execPreGeneric(w, p, exec)
}

// execPreShared is execShared over register rows, with a 32-bit path that
// skips the staging buffer.
func (e *engine) execPreShared(w *Warp, p *preInstr, exec uint32) (int, error) {
	sh := w.CTA.Shared
	addrs := &w.CTA.slab.addrs
	w.laneAddrs(p, exec, addrs)
	if p.nbytes == 4 {
		if p.store {
			src := w.srcRegRow(p.dataReg)
			for m := exec; m != 0; m &= m - 1 {
				l := lane(m)
				if err := sh.Write32(addrs[l], src[l]); err != nil {
					return 2, err
				}
			}
		} else {
			d := w.dstRow(p.dst, &w.CTA.slab.rows[3])
			for m := exec; m != 0; m &= m - 1 {
				l := lane(m)
				v, err := sh.Read32(addrs[l])
				if err != nil {
					return 2, err
				}
				d[l] = v
			}
		}
		return 2, nil
	}
	var buf [16]byte
	nbytes := int(p.nbytes)
	for m := exec; m != 0; m &= m - 1 {
		l := lane(m)
		t := &w.threads[l]
		if p.store {
			storeFromRegs(t, p.dataReg, buf[:], p.width)
			if err := sh.Write(addrs[l], buf[:nbytes]); err != nil {
				return 2, err
			}
		} else {
			if err := sh.Read(addrs[l], buf[:nbytes]); err != nil {
				return 2, err
			}
			loadIntoRegs(t, p.dst, buf[:], p.width)
		}
	}
	return 2, nil
}

// execPreLocal is execLocal on the warp's interleaved stack. A 4-byte
// access at one offset for every lane — every injected spill, fill and
// parameter store — moves a register row to or from a stack row with one
// bounds check, and so does an 8-byte store (the memory-parameter
// object's address field) with two rows; other accesses go lane by lane,
// in ascending order, up to the first faulting lane.
func (e *engine) execPreLocal(w *Warp, p *preInstr, exec uint32) (int, error) {
	nbytes := int(p.nbytes)
	slab := w.CTA.slab
	var err error
	if off, ok := w.uniformAddr(p, exec); ok && (nbytes == 4 || nbytes == 8 && p.store) {
		switch {
		case nbytes == 8:
			err = w.local.StoreRow64(exec, off, w.srcRegRow(p.dataReg), w.srcRegRow(p.dataReg+1))
		case p.store:
			err = w.local.StoreRow(exec, off, w.srcRegRow(p.dataReg))
		default:
			err = w.local.LoadRow(exec, off, w.dstRow(p.dst, &slab.rows[3]))
		}
	} else {
		addrs := &slab.addrs
		w.laneAddrs(p, exec, addrs)
		var buf [16]byte
		for m := exec; m != 0 && err == nil; m &= m - 1 {
			l := lane(m)
			t := &w.threads[l]
			if p.store {
				storeFromRegs(t, p.dataReg, buf[:], p.width)
				err = w.local.Write(l, addrs[l], buf[:nbytes])
			} else if err = w.local.Read(l, addrs[l], buf[:nbytes]); err == nil {
				loadIntoRegs(t, p.dst, buf[:], p.width)
			}
		}
	}
	if err != nil {
		return 0, err
	}
	total := nbytes * bits.OnesCount32(exec)
	lines := (total + int(e.dev.Cfg.CoalesceBytes) - 1) / int(e.dev.Cfg.CoalesceBytes)
	return 4 + lines, nil
}

// execPreGeneric is execGeneric's all-lanes-global path: one device-memory
// access per warp, costing what its address row's shape needs. A uniform
// address is read or written once; other shapes move the data between the
// register rows and the page bytes, lane by lane. Any lane decoding to a
// non-global space falls back to the classic path before any state is
// touched, so mixed-space accesses and forced-global faults behave
// identically.
func (e *engine) execPreGeneric(w *Warp, p *preInstr, exec uint32) (int, error) {
	keep := &e.dev.perSM[w.CTA.SM]
	op := &keep.warpOp
	op.Exec, op.Store, op.Width, op.Addrs = exec, p.store, int(p.nbytes), &w.CTA.slab.addrs
	var global bool
	if op.Shape, global = w.globalAddrs(p, exec, op.Addrs); !global {
		// Mixed address spaces and forced-global faults: the classic path,
		// with no state modified yet.
		return e.execMem(w, &w.code.k.Instrs[w.PC], exec)
	}
	for i := range max(1, op.Width/4) {
		if p.store {
			op.Rows[i] = w.srcRegRow(p.dataReg + uint8(i))
		} else {
			op.Rows[i] = w.dstRow(p.dst+uint8(i), &w.CTA.slab.rows[3])
		}
	}
	if _, err := e.dev.Global.AccessWarp(op); err != nil {
		return 0, err
	}
	st := &e.sms[w.CTA.SM]
	res := &keep.coalRes
	e.dev.Coal.CoalesceWarp(op, res)
	st.globalTransactions += uint64(res.UniqueLines())
	if e.fence != nil && !e.fence(res.Lines, accessOf(p.store)) {
		return 0, e.fenced(w, accessOf(p.store))
	}
	if e.probe != nil {
		e.probe.touch(w.CTA.Index, res.Lines, accessOf(p.store))
	}
	cost := st.hier.AccessLines(res.Lines, p.store)
	if e.dev.MemWatch != nil {
		// Res aliases the SM's reusable line buffer; observers copy what
		// they keep (see Device.MemWatch).
		e.dev.MemWatch(MemAccess{
			PC: w.PC, SM: w.CTA.SM,
			Warp:  w.CTA.Index*len(w.CTA.Warps) + w.IDinCTA,
			Store: p.store, Res: *res,
		})
	}
	return cost, nil
}

// globalAddrs is laneAddrs for a global access, classifying the address
// row in the same pass: uniform when every lane of exec computes one
// address — decided from the address registers' rows, as uniformAddr
// decides it — ascending when the addresses strictly ascend in lane order,
// general otherwise. A uniform access fills in its first lane only. It
// reports false when some lane's address is not global.
func (w *Warp) globalAddrs(p *preInstr, exec uint32, addrs *[WarpSize]uint64) (mem.Shape, bool) {
	if a, ok := w.uniformAddr(p, exec); ok {
		addrs[lane(exec)] = a
		return mem.ShapeUniform, mem.IsGlobal(a)
	}
	off := uint64(p.memOff)
	lo, hi := w.row(p.memBase), &zeroRow // a non-uniform base is a register
	if p.memE {
		hi = w.srcRegRow(p.memBase + 1)
	}
	l := lane(exec)
	prev := (uint64(lo[l]) | uint64(hi[l])<<32) + off
	addrs[l] = prev
	global := mem.IsGlobal(prev)
	shape := mem.ShapeAscending
	for m := exec & (exec - 1); m != 0; m &= m - 1 {
		l := lane(m)
		a := (uint64(lo[l]) | uint64(hi[l])<<32) + off
		addrs[l] = a
		global = global && mem.IsGlobal(a)
		if a <= prev {
			shape = mem.ShapeGeneral
		}
		prev = a
	}
	return shape, global
}

// runWarpSolo runs w until it completes or reaches a barrier, issuing its
// instructions back to back with no sweep over the SM's other warps.
// Legal only when w is the SM's sole live warp with no pending CTAs — then
// no other warp can observe the departure from one-instruction-per-sweep
// interleaving, and every per-instruction accounting effect (cycles,
// samples, watchdog) is produced by stepPre exactly as in sweep order.
func (e *engine) runWarpSolo(w *Warp) error {
	if w == e.sms[w.CTA.SM].target {
		for !w.Done && !w.AtBarrier {
			if err := e.stepSite(w); err != nil {
				return err
			}
		}
		return nil
	}
	for !w.Done && !w.AtBarrier {
		if err := e.stepPre(w); err != nil {
			return err
		}
	}
	return nil
}
