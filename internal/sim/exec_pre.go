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
// the guard is pre-split, operand kinds are resolved, the scoreboard
// walks precomputed slot lists, and specialized classes execute with
// manual lane loops (or a single leader computation broadcast to the
// warp when the value lattice proved the instruction uniform). All
// accounting — issue counters, watchdog, cycles, stalls, PC samples —
// matches step() field for field.
func (e *engine) stepPre(w *Warp) error {
	if w.Done || w.AtBarrier {
		return nil
	}
	pre := w.CTA.pre
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

	// Guard evaluation over the active mask. A lattice-proven uniform
	// guard is evaluated once on the leader lane (all-or-none by proof);
	// otherwise each active lane reads its own predicate file.
	exec := w.Active
	if p.flags&pfGuardAlways == 0 {
		gn := p.flags&pfGuardNeg != 0
		if p.flags&pfUniform != 0 && exec != 0 {
			if !w.Threads[bits.TrailingZeros32(exec)].guardPasses(p.guardReg, gn) {
				exec = 0
			}
		} else {
			exec = 0
			for m := w.Active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if w.Threads[l].guardPasses(p.guardReg, gn) {
					exec |= 1 << l
				}
			}
		}
	}

	// Issue accounting.
	st.warpInstrs++
	nexec := bits.OnesCount32(exec)
	st.threadInstrs += uint64(nexec)
	if p.flags&pfInjected != 0 {
		st.injectedWarpInstrs++
		st.injectedThreadInstrs += uint64(nexec)
	}
	cost := int(p.staticCost)
	if p.flags&pfFoldDyn == 0 {
		for m := exec; m != 0; m &= m - 1 {
			w.Threads[bits.TrailingZeros32(m)].DynInstrs++
		}
	}
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
	stall := w.scoreboardPre(p, cost)
	st.cycles += uint64(cost) + stall
	st.scoreboardStalls += stall
	if st.samp != nil && st.cycles >= st.sampNext {
		e.takeSample(st, w, pcIdx, &pre.k.Instrs[pcIdx], nexec, cost, stall, divBefore)
	}
	return nil
}

// scoreboardPre is Warp.scoreboard over precomputed slot lists: same
// hazard model, no per-step operand walks.
func (w *Warp) scoreboardPre(p *preInstr, cost int) (stall uint64) {
	ready := uint64(0)
	for _, s := range p.sbSrc {
		if r := w.readyAt[s]; r > ready {
			ready = r
		}
	}
	if ready > w.clock {
		stall = ready - w.clock
	}
	w.clock += stall + uint64(cost)
	retire := w.clock + uint64(p.resLat)
	for _, d := range p.sbDst {
		w.readyAt[d] = retire
	}
	return stall
}

// preSrcU32 evaluates a resolved scalar source operand for one thread.
// All failure modes were discharged at predecode (out-of-range constant
// words demote the instruction to pcGeneric), so reads cannot fault.
func (e *engine) preSrcU32(t *Thread, s *preSrc) uint32 {
	switch s.kind {
	case psReg:
		return t.Regs[s.reg]
	case psImm:
		return s.imm
	case psCMem:
		return binary.LittleEndian.Uint32(e.cb[s.off:])
	case psSR:
		return e.readSR(t, s.sr)
	case psPred:
		if t.guardPasses(s.reg, s.neg) {
			return 1
		}
		return 0
	}
	return 0
}

// aluCompute executes one specialized single-destination ALU instruction
// for one thread, returning the register result. The per-class semantics
// mirror execALULane exactly.
func (e *engine) aluCompute(t *Thread, p *preInstr) uint32 {
	switch p.class {
	case pcMOV:
		return e.preSrcU32(t, &p.srcs[0])
	case pcIADD:
		a := e.preSrcU32(t, &p.srcs[0])
		b := e.preSrcU32(t, &p.srcs[1])
		if p.negB {
			b = -b
		}
		return a + b
	case pcIMUL:
		return e.preSrcU32(t, &p.srcs[0]) * e.preSrcU32(t, &p.srcs[1])
	case pcIMAD:
		return e.preSrcU32(t, &p.srcs[0])*e.preSrcU32(t, &p.srcs[1]) + e.preSrcU32(t, &p.srcs[2])
	case pcISCADD:
		a := e.preSrcU32(t, &p.srcs[0])
		b := e.preSrcU32(t, &p.srcs[1])
		sh := e.preSrcU32(t, &p.srcs[2])
		return (a << (sh & 31)) + b
	case pcSHL:
		a := e.preSrcU32(t, &p.srcs[0])
		b := e.preSrcU32(t, &p.srcs[1])
		if b >= 32 {
			return 0
		}
		return a << b
	case pcSHR:
		a := e.preSrcU32(t, &p.srcs[0])
		b := e.preSrcU32(t, &p.srcs[1])
		if p.unsigned {
			if b >= 32 {
				return 0
			}
			return a >> b
		}
		if b >= 32 {
			b = 31
		}
		return u32(i32(a) >> b)
	case pcLOP:
		a := e.preSrcU32(t, &p.srcs[0])
		b := e.preSrcU32(t, &p.srcs[1])
		switch p.logic {
		case sass.LogicAND:
			return a & b
		case sass.LogicOR:
			return a | b
		case sass.LogicXOR:
			return a ^ b
		case sass.LogicPASS:
			return b
		case sass.LogicNOT:
			return ^b
		}
		return 0
	case pcSEL:
		if t.guardPasses(p.srcs[2].reg, p.srcs[2].neg) {
			return e.preSrcU32(t, &p.srcs[0])
		}
		return e.preSrcU32(t, &p.srcs[1])
	case pcFADD:
		a := e.preSrcU32(t, &p.srcs[0])
		fb := f32(e.preSrcU32(t, &p.srcs[1]))
		if p.negB {
			fb = -fb
		}
		return f32b(f32(a) + fb)
	case pcFMUL:
		a := e.preSrcU32(t, &p.srcs[0])
		fb := f32(e.preSrcU32(t, &p.srcs[1]))
		if p.negB {
			fb = -fb
		}
		return f32b(f32(a) * fb)
	case pcFFMA:
		a := e.preSrcU32(t, &p.srcs[0])
		b := e.preSrcU32(t, &p.srcs[1])
		c := e.preSrcU32(t, &p.srcs[2])
		return f32b(f32(a)*f32(b) + f32(c))
	case pcIMNMX:
		a := e.preSrcU32(t, &p.srcs[0])
		b := e.preSrcU32(t, &p.srcs[1])
		takeMin := t.guardPasses(p.srcs[2].reg, p.srcs[2].neg)
		if p.unsigned {
			if (a < b) == takeMin {
				return a
			}
			return b
		}
		if (i32(a) < i32(b)) == takeMin {
			return a
		}
		return b
	case pcFMNMX:
		a := e.preSrcU32(t, &p.srcs[0])
		b := e.preSrcU32(t, &p.srcs[1])
		takeMin := t.guardPasses(p.srcs[2].reg, p.srcs[2].neg)
		if (f32(a) < f32(b)) == takeMin {
			return a
		}
		return b
	case pcMUFU:
		x := float64(f32(e.preSrcU32(t, &p.srcs[0])))
		return f32b(float32(mufuEval(p.mufu, x)))
	}
	return 0
}

// mufuEval evaluates one special-function-unit op; an out-of-enum
// function returns 0, matching the interpreter's silent default.
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

// setpCompute evaluates ISETP/FSETP for one thread, returning the primary
// and complement predicate results (execSetp semantics).
func (e *engine) setpCompute(t *Thread, p *preInstr) (bool, bool) {
	a := e.preSrcU32(t, &p.srcs[0])
	b := e.preSrcU32(t, &p.srcs[1])
	var cmp bool
	if p.class == pcFSETP {
		fa, fb := f32(a), f32(b)
		switch p.cmp {
		case sass.CmpLT:
			cmp = fa < fb
		case sass.CmpLE:
			cmp = fa <= fb
		case sass.CmpGT:
			cmp = fa > fb
		case sass.CmpGE:
			cmp = fa >= fb
		case sass.CmpEQ:
			cmp = fa == fb
		case sass.CmpNE:
			cmp = fa != fb
		}
	} else if p.unsigned {
		switch p.cmp {
		case sass.CmpLT:
			cmp = a < b
		case sass.CmpLE:
			cmp = a <= b
		case sass.CmpGT:
			cmp = a > b
		case sass.CmpGE:
			cmp = a >= b
		case sass.CmpEQ:
			cmp = a == b
		case sass.CmpNE:
			cmp = a != b
		}
	} else {
		sa, sb := i32(a), i32(b)
		switch p.cmp {
		case sass.CmpLT:
			cmp = sa < sb
		case sass.CmpLE:
			cmp = sa <= sb
		case sass.CmpGT:
			cmp = sa > sb
		case sass.CmpGE:
			cmp = sa >= sb
		case sass.CmpEQ:
			cmp = sa == sb
		case sass.CmpNE:
			cmp = sa != sb
		}
	}
	c := t.guardPasses(p.srcs[2].reg, p.srcs[2].neg)
	switch p.logic {
	case sass.LogicAND:
		return cmp && c, !cmp && c
	case sass.LogicOR:
		return cmp || c, !cmp || c
	case sass.LogicXOR:
		return cmp != c, !cmp != c
	}
	return cmp, !cmp
}

// execPreALU runs one specialized ALU instruction over the executing
// lanes: the uniform-warp fast path computes once on the leader lane and
// broadcasts; otherwise every lane computes.
func (e *engine) execPreALU(w *Warp, p *preInstr, exec uint32) {
	if exec == 0 {
		return
	}
	setp := p.class == pcISETP || p.class == pcFSETP
	if p.flags&pfUniform != 0 && exec == w.Active {
		lead := w.Threads[bits.TrailingZeros32(exec)]
		if setp {
			v, vq := e.setpCompute(lead, p)
			for m := exec; m != 0; m &= m - 1 {
				t := w.Threads[bits.TrailingZeros32(m)]
				t.DynInstrs++
				t.WritePred(p.dstP, v)
				if p.dstQ != sass.PT {
					t.WritePred(p.dstQ, vq)
				}
			}
			return
		}
		v := e.aluCompute(lead, p)
		if p.dst != sass.RZ {
			for m := exec; m != 0; m &= m - 1 {
				t := w.Threads[bits.TrailingZeros32(m)]
				t.DynInstrs++
				t.Regs[p.dst] = v
			}
		} else {
			for m := exec; m != 0; m &= m - 1 {
				w.Threads[bits.TrailingZeros32(m)].DynInstrs++
			}
		}
		return
	}
	if setp {
		e.execPreSetp(w, p, exec)
		return
	}
	var ls laneSrcs
	if p.dst != sass.RZ && e.resolveLaneSrcs(p, &ls, 3) && e.execPreALUFast(w, p, &ls, exec) {
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		t := w.Threads[bits.TrailingZeros32(m)]
		t.DynInstrs++
		t.WriteReg(p.dst, e.aluCompute(t, p))
	}
}

// laneSrcs is the per-warp-step fetch plan for a specialized ALU
// instruction: each source collapses to either a lane-invariant 32-bit
// constant (immediate, constant-bank word — fixed for the launch — or
// folded RZ) or a per-lane register index. Building the plan once per
// warp step hoists the operand-kind dispatch out of the lane loop.
type laneSrcs struct {
	r0, r1, r2 int32 // register index; -1 selects the constant
	c0, c1, c2 uint32
}

// resolveLaneSrcs fills the fetch plan for the first n sources and
// reports whether all of them are lane-invariant constants or plain
// register reads. Special registers and predicate operands keep the
// per-lane slow path.
func (e *engine) resolveLaneSrcs(p *preInstr, ls *laneSrcs, n int) bool {
	ls.r0, ls.r1, ls.r2 = -1, -1, -1
	for i := 0; i < n; i++ {
		s := &p.srcs[i]
		var r int32 = -1
		var c uint32
		switch s.kind {
		case psZero:
		case psReg:
			r = int32(s.reg)
		case psImm:
			c = s.imm
		case psCMem:
			c = binary.LittleEndian.Uint32(e.cb[s.off:])
		default:
			return false
		}
		switch i {
		case 0:
			ls.r0, ls.c0 = r, c
		case 1:
			ls.r1, ls.c1 = r, c
		case 2:
			ls.r2, ls.c2 = r, c
		}
	}
	return true
}

// execPreALUFast executes the hot ALU classes with the class switch and
// all lane-invariant work hoisted out of the lane loop: per lane only
// register reads, the arithmetic itself, and the destination write
// remain. Reports false for classes without a specialized loop (the
// predicate-selector family), which then use the aluCompute path. The
// per-class arithmetic is the same expression aluCompute evaluates.
func (e *engine) execPreALUFast(w *Warp, p *preInstr, ls *laneSrcs, exec uint32) bool {
	dst := p.dst
	switch p.class {
	case pcMOV:
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a := ls.c0
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			t.Regs[dst] = a
		}
	case pcIADD:
		neg := p.negB
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b := ls.c0, ls.c1
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			if neg {
				b = -b
			}
			t.Regs[dst] = a + b
		}
	case pcIMUL:
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b := ls.c0, ls.c1
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			t.Regs[dst] = a * b
		}
	case pcIMAD:
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b, c := ls.c0, ls.c1, ls.c2
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			if ls.r2 >= 0 {
				c = t.Regs[ls.r2]
			}
			t.Regs[dst] = a*b + c
		}
	case pcISCADD:
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b, sh := ls.c0, ls.c1, ls.c2
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			if ls.r2 >= 0 {
				sh = t.Regs[ls.r2]
			}
			t.Regs[dst] = (a << (sh & 31)) + b
		}
	case pcSHL:
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b := ls.c0, ls.c1
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			v := uint32(0)
			if b < 32 {
				v = a << b
			}
			t.Regs[dst] = v
		}
	case pcSHR:
		unsigned := p.unsigned
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b := ls.c0, ls.c1
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			var v uint32
			if unsigned {
				if b < 32 {
					v = a >> b
				}
			} else {
				if b >= 32 {
					b = 31
				}
				v = u32(i32(a) >> b)
			}
			t.Regs[dst] = v
		}
	case pcLOP:
		logic := p.logic
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b := ls.c0, ls.c1
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			var v uint32
			switch logic {
			case sass.LogicAND:
				v = a & b
			case sass.LogicOR:
				v = a | b
			case sass.LogicXOR:
				v = a ^ b
			case sass.LogicPASS:
				v = b
			case sass.LogicNOT:
				v = ^b
			}
			t.Regs[dst] = v
		}
	case pcFADD:
		neg := p.negB
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b := ls.c0, ls.c1
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			fb := f32(b)
			if neg {
				fb = -fb
			}
			t.Regs[dst] = f32b(f32(a) + fb)
		}
	case pcFMUL:
		neg := p.negB
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b := ls.c0, ls.c1
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			fb := f32(b)
			if neg {
				fb = -fb
			}
			t.Regs[dst] = f32b(f32(a) * fb)
		}
	case pcFFMA:
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a, b, c := ls.c0, ls.c1, ls.c2
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
			if ls.r2 >= 0 {
				c = t.Regs[ls.r2]
			}
			t.Regs[dst] = f32b(f32(a)*f32(b) + f32(c))
		}
	case pcMUFU:
		fn := p.mufu
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			a := ls.c0
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			t.Regs[dst] = f32b(float32(mufuEval(fn, float64(f32(a)))))
		}
	default:
		return false
	}
	return true
}

// execPreSetp executes ISETP/FSETP with the operand fetch plan hoisted;
// the compare and combine switches stay in the loop but are perfectly
// predicted (the modifiers are loop-invariant).
func (e *engine) execPreSetp(w *Warp, p *preInstr, exec uint32) {
	var ls laneSrcs
	if !e.resolveLaneSrcs(p, &ls, 2) {
		for m := exec; m != 0; m &= m - 1 {
			t := w.Threads[bits.TrailingZeros32(m)]
			t.DynInstrs++
			v, vq := e.setpCompute(t, p)
			t.WritePred(p.dstP, v)
			if p.dstQ != sass.PT {
				t.WritePred(p.dstQ, vq)
			}
		}
		return
	}
	sel := &p.srcs[2]
	fsetp := p.class == pcFSETP
	for m := exec; m != 0; m &= m - 1 {
		t := w.Threads[bits.TrailingZeros32(m)]
		t.DynInstrs++
		a, b := ls.c0, ls.c1
		if ls.r0 >= 0 {
			a = t.Regs[ls.r0]
		}
		if ls.r1 >= 0 {
			b = t.Regs[ls.r1]
		}
		cmp := setpCmp(a, b, fsetp, p.unsigned, p.cmp)
		c := t.guardPasses(sel.reg, sel.neg)
		var v, vq bool
		switch p.logic {
		case sass.LogicAND:
			v, vq = cmp && c, !cmp && c
		case sass.LogicOR:
			v, vq = cmp || c, !cmp || c
		case sass.LogicXOR:
			v, vq = cmp != c, !cmp != c
		default:
			v, vq = cmp, !cmp
		}
		t.WritePred(p.dstP, v)
		if p.dstQ != sass.PT {
			t.WritePred(p.dstQ, vq)
		}
	}
}

// setpCmp evaluates the SETP comparison for one lane (the compare leg of
// setpCompute).
func setpCmp(a, b uint32, fsetp, unsigned bool, op sass.CmpOp) bool {
	if fsetp {
		fa, fb := f32(a), f32(b)
		switch op {
		case sass.CmpLT:
			return fa < fb
		case sass.CmpLE:
			return fa <= fb
		case sass.CmpGT:
			return fa > fb
		case sass.CmpGE:
			return fa >= fb
		case sass.CmpEQ:
			return fa == fb
		case sass.CmpNE:
			return fa != fb
		}
		return false
	}
	if unsigned {
		switch op {
		case sass.CmpLT:
			return a < b
		case sass.CmpLE:
			return a <= b
		case sass.CmpGT:
			return a > b
		case sass.CmpGE:
			return a >= b
		case sass.CmpEQ:
			return a == b
		case sass.CmpNE:
			return a != b
		}
		return false
	}
	sa, sb := i32(a), i32(b)
	switch op {
	case sass.CmpLT:
		return sa < sb
	case sass.CmpLE:
		return sa <= sb
	case sass.CmpGT:
		return sa > sb
	case sass.CmpGE:
		return sa >= sb
	case sass.CmpEQ:
		return sa == sb
	case sass.CmpNE:
		return sa != sb
	}
	return false
}

// execPreIADDC is the CC-carrying IADD lane loop (execALULane's IADD
// case with .X/.CC honored): consume the carry bit when pfX is set, and
// recompute the full condition code when pfSetCC is set. CC state is
// per-lane, so there is no uniform broadcast for this class.
func (e *engine) execPreIADDC(w *Warp, p *preInstr, exec uint32) {
	var ls laneSrcs
	fast := e.resolveLaneSrcs(p, &ls, 2)
	setCC := p.flags&pfSetCC != 0
	useX := p.flags&pfX != 0
	neg := p.negB
	for m := exec; m != 0; m &= m - 1 {
		t := w.Threads[bits.TrailingZeros32(m)]
		t.DynInstrs++
		var a, b uint32
		if fast {
			a, b = ls.c0, ls.c1
			if ls.r0 >= 0 {
				a = t.Regs[ls.r0]
			}
			if ls.r1 >= 0 {
				b = t.Regs[ls.r1]
			}
		} else {
			a = e.preSrcU32(t, &p.srcs[0])
			b = e.preSrcU32(t, &p.srcs[1])
		}
		if neg {
			b = -b
		}
		sum := uint64(a) + uint64(b)
		if useX && t.CC&CCCarry != 0 {
			sum++
		}
		r := uint32(sum)
		if setCC {
			t.CC = 0
			if r == 0 {
				t.CC |= CCZero
			}
			if int32(r) < 0 {
				t.CC |= CCSign
			}
			if sum>>32 != 0 {
				t.CC |= CCCarry
			}
			if (a^b)&0x8000_0000 == 0 && (a^r)&0x8000_0000 != 0 {
				t.CC |= CCOvf
			}
		}
		t.WriteReg(p.dst, r)
	}
}

// execPrePSETP is the predicate-logic lane loop (execALULane's PSETP
// case): combine two source predicates and write the primary destination
// only, as the interpreter does.
func (e *engine) execPrePSETP(w *Warp, p *preInstr, exec uint32) {
	sa, sb := &p.srcs[0], &p.srcs[1]
	for m := exec; m != 0; m &= m - 1 {
		t := w.Threads[bits.TrailingZeros32(m)]
		t.DynInstrs++
		a := t.guardPasses(sa.reg, sa.neg)
		b := t.guardPasses(sb.reg, sb.neg)
		var v bool
		switch p.logic {
		case sass.LogicAND:
			v = a && b
		case sass.LogicOR:
			v = a || b
		case sass.LogicXOR:
			v = a != b
		default:
			v = a
		}
		t.WritePred(p.dstP, v)
	}
}

// execPreP2R is the lane loop of both predicate/CC shuttles (execALULane's
// P2R and R2P cases): P2R merges the predicate file — the condition code
// with .X — into a GPR under a mask, R2P writes it back.
func (e *engine) execPreP2R(w *Warp, p *preInstr, exec uint32) {
	cc := p.flags&pfX != 0
	for m := exec; m != 0; m &= m - 1 {
		t := w.Threads[bits.TrailingZeros32(m)]
		t.DynInstrs++
		a := e.preSrcU32(t, &p.srcs[0])
		mask := e.preSrcU32(t, &p.srcs[1])
		switch {
		case p.class == pcP2R:
			src := uint32(t.Preds)
			if cc {
				src = uint32(t.CC)
			}
			t.WriteReg(p.dst, (a&^mask)|(src&mask))
		case cc:
			t.CC = (t.CC &^ uint8(mask)) | (uint8(a) & uint8(mask&0xf))
		default:
			// PT (bit 7) is not writable.
			mask &= 0x7f
			t.Preds = (t.Preds &^ uint8(mask)) | (uint8(a) & uint8(mask)) | 1<<7
		}
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

// preLaneAddr computes the effective address of the memory operand for
// one lane (laneAddr over predecoded fields).
func (e *engine) preLaneAddr(t *Thread, p *preInstr) uint64 {
	var base uint64
	if p.memBase != sass.RZ {
		if p.memE {
			base = t.ReadReg64(p.memBase)
		} else {
			base = uint64(t.Regs[p.memBase])
		}
	}
	return base + uint64(p.memOff)
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

// execPreShared is execShared with resolved operands and a 32-bit fast
// path that skips the staging buffer.
func (e *engine) execPreShared(w *Warp, p *preInstr, exec uint32) (int, error) {
	sh := w.CTA.Shared
	if p.nbytes == 4 {
		if p.store {
			for m := exec; m != 0; m &= m - 1 {
				t := w.Threads[bits.TrailingZeros32(m)]
				if err := sh.Write32(e.preLaneAddr(t, p), t.ReadReg(p.dataReg)); err != nil {
					return 2, err
				}
			}
		} else {
			for m := exec; m != 0; m &= m - 1 {
				t := w.Threads[bits.TrailingZeros32(m)]
				v, err := sh.Read32(e.preLaneAddr(t, p))
				if err != nil {
					return 2, err
				}
				t.WriteReg(p.dst, v)
			}
		}
		return 2, nil
	}
	var buf [16]byte
	nbytes := int(p.nbytes)
	for m := exec; m != 0; m &= m - 1 {
		t := w.Threads[bits.TrailingZeros32(m)]
		off := e.preLaneAddr(t, p)
		if p.store {
			storeFromRegs(t, p.dataReg, buf[:], p.width)
			if err := sh.Write(off, buf[:nbytes]); err != nil {
				return 2, err
			}
		} else {
			if err := sh.Read(off, buf[:nbytes]); err != nil {
				return 2, err
			}
			loadIntoRegs(t, p.dst, buf[:], p.width)
		}
	}
	return 2, nil
}

// execPreLocal is execLocal with resolved operands and, like
// execPreShared, a 32-bit path with no staging buffer: the word every
// injected spill, fill and parameter store moves.
func (e *engine) execPreLocal(w *Warp, p *preInstr, exec uint32) (int, error) {
	var buf [16]byte
	nbytes := int(p.nbytes)
	for m := exec; m != 0; m &= m - 1 {
		t := w.Threads[bits.TrailingZeros32(m)]
		off := e.preLaneAddr(t, p)
		var err error
		switch {
		case nbytes == 4 && p.store:
			err = t.Local.Write32(off, t.ReadReg(p.dataReg))
		case nbytes == 4:
			var v uint32
			if v, err = t.Local.Read32(off); err == nil {
				t.WriteReg(p.dst, v)
			}
		case p.store:
			storeFromRegs(t, p.dataReg, buf[:], p.width)
			err = t.Local.Write(off, buf[:nbytes])
		default:
			if err = t.Local.Read(off, buf[:nbytes]); err == nil {
				loadIntoRegs(t, p.dst, buf[:], p.width)
			}
		}
		if err != nil {
			return 0, err
		}
	}
	total := nbytes * bits.OnesCount32(exec)
	lines := (total + int(e.dev.Cfg.CoalesceBytes) - 1) / int(e.dev.Cfg.CoalesceBytes)
	return 4 + lines, nil
}

// execPreGeneric is execGeneric's all-lanes-global fast path: one batched
// device-memory access per warp instead of three lock acquisitions per
// lane. Any lane decoding to a non-global space falls back to the classic
// path before any state is touched, so mixed-space accesses and
// forced-global faults behave identically.
func (e *engine) execPreGeneric(w *Warp, p *preInstr, exec uint32) (int, error) {
	st := &e.sms[w.CTA.SM]
	op := &st.warpOp
	op.N = 0
	op.Width = int(p.nbytes)
	op.Store = p.store
	var lanes [WarpSize]uint8
	var access mem.Access
	access.Width = int(p.nbytes)
	access.Store = p.store
	for m := exec; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		t := w.Threads[l]
		t.DynInstrs++
		addr := e.preLaneAddr(t, p)
		if !mem.IsGlobal(addr) {
			// pcMemG folds the DynInstrs pass into this loop; finish the
			// remaining lanes before handing the instruction to the
			// classic path, which expects the pass already done.
			for m2 := m & (m - 1); m2 != 0; m2 &= m2 - 1 {
				w.Threads[bits.TrailingZeros32(m2)].DynInstrs++
			}
			return e.execOpMemFallback(w, p, exec)
		}
		access.Addrs[l] = addr
		access.Active |= 1 << l
		op.Addrs[op.N] = addr
		lanes[op.N] = uint8(l)
		op.N++
	}
	if p.store {
		for i := 0; i < op.N; i++ {
			storeFromRegs(w.Threads[lanes[i]], p.dataReg, op.Data[i][:], p.width)
		}
	}
	nOK, err := e.dev.Global.AccessWarp(op)
	if !p.store {
		for i := 0; i < nOK; i++ {
			loadIntoRegs(w.Threads[lanes[i]], p.dst, op.Data[i][:], p.width)
		}
	}
	if err != nil {
		return 0, err
	}
	e.dev.Coal.CoalesceInto(&access, &st.coalRes)
	res := &st.coalRes
	st.globalTransactions += uint64(res.UniqueLines())
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

// execOpMemFallback reruns a specialized memory instruction through the
// classic interpreter path (mixed address spaces, forced-global faults).
// No state has been modified when it is called.
func (e *engine) execOpMemFallback(w *Warp, p *preInstr, exec uint32) (int, error) {
	return e.execMem(w, &w.CTA.Kernel.Instrs[w.PC], exec)
}

// runWarpSolo runs w until it completes or reaches a barrier, dispatching
// per predecoded basic-block run: after the instruction at the head of a
// straight-line run, the rest of the run executes with no Done/AtBarrier
// re-checks, which is sound because straight-line instructions always
// advance PC+1 and can neither block the warp nor redirect control. Legal
// only when w is the SM's sole live warp with no pending CTAs — then no
// other warp can observe the departure from one-instruction-per-sweep
// interleaving, and every per-instruction accounting effect (cycles,
// samples, watchdog) is produced by stepPre exactly as in sweep order.
func (e *engine) runWarpSolo(w *Warp) error {
	for !w.Done && !w.AtBarrier {
		n := uint16(1)
		if pre := w.CTA.pre; w.PC >= 0 && w.PC < len(pre.ins) {
			n = pre.ins[w.PC].run
		}
		for ; n > 0; n-- {
			if err := e.stepPre(w); err != nil {
				return err
			}
		}
	}
	return nil
}
