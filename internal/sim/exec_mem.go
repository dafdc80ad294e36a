package sim

import (
	"encoding/binary"
	"fmt"

	"sassi/internal/mem"
	"sassi/internal/sass"
)

// laneAddr computes the effective byte address of a memory operand for one
// lane. For generic/global ops the result is a generic address; for
// LDL/STL/LDS/STS it is a space-relative offset.
func (e *engine) laneAddr(t *Thread, in *sass.Instruction, ref sass.Operand) uint64 {
	var base uint64
	if ref.Reg != sass.RZ {
		if in.Mods.E {
			base = t.ReadReg64(ref.Reg)
		} else {
			base = uint64(t.ReadReg(ref.Reg))
		}
	}
	return base + uint64(ref.Imm)
}

// memRef locates the memory-reference operand of a memory instruction.
func memRef(in *sass.Instruction) (sass.Operand, error) {
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdMem {
			return s, nil
		}
	}
	return sass.Operand{}, fmt.Errorf("%s: no memory operand", in.Op)
}

// loadIntoRegs writes a loaded buffer into the destination register(s).
func loadIntoRegs(t *Thread, dst uint8, buf []byte, width sass.Width) {
	switch width {
	case sass.W8:
		t.WriteReg(dst, uint32(buf[0]))
	case sass.W16:
		t.WriteReg(dst, uint32(binary.LittleEndian.Uint16(buf)))
	default:
		n := width.Regs()
		for i := 0; i < n; i++ {
			t.WriteReg(dst+uint8(i), binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
}

// storeFromRegs gathers the store data register(s) into a buffer.
func storeFromRegs(t *Thread, src uint8, buf []byte, width sass.Width) {
	switch width {
	case sass.W8:
		buf[0] = byte(t.ReadReg(src))
	case sass.W16:
		binary.LittleEndian.PutUint16(buf, uint16(t.ReadReg(src)))
	default:
		n := width.Regs()
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], t.ReadReg(src+uint8(i)))
		}
	}
}

// execMem executes a memory instruction and returns its modeled cost.
func (e *engine) execMem(w *Warp, in *sass.Instruction, exec uint32) (int, error) {
	if exec == 0 {
		return 1, nil
	}
	width := in.Mods.Width
	nbytes := width.Bytes()

	switch in.Op {
	case sass.OpLDC:
		ref, err := memRef(in)
		if err != nil {
			return 0, err
		}
		var lerr error
		Lanes(exec, func(l int) {
			if lerr != nil {
				return
			}
			t := w.Thread(l)
			off := int64(e.laneAddr(t, in, ref))
			n := width.Regs()
			for i := 0; i < n; i++ {
				v, err := e.cbRead32(off + int64(i*4))
				if err != nil {
					lerr = err
					return
				}
				t.WriteReg(in.Dsts[0].Reg+uint8(i), v)
			}
		})
		return 1, lerr

	case sass.OpLDL, sass.OpSTL:
		return e.execLocal(w, in, exec, width, nbytes)

	case sass.OpLDS, sass.OpSTS:
		return e.execShared(w, in, exec, width, nbytes)

	case sass.OpATOMS:
		return e.execAtomicShared(w, in, exec)

	case sass.OpATOM, sass.OpRED:
		return e.execAtomicGlobal(w, in, exec)

	case sass.OpLD, sass.OpST, sass.OpLDG, sass.OpSTG, sass.OpTLD:
		return e.execGeneric(w, in, exec, width, nbytes)
	}
	return 0, fmt.Errorf("unhandled memory op %s", in.Op)
}

// execLocal handles LDL/STL. Local addresses are space-relative offsets;
// the hardware interleaves them per thread, so warp accesses to the same
// stack slot coalesce perfectly.
func (e *engine) execLocal(w *Warp, in *sass.Instruction, exec uint32, width sass.Width, nbytes int) (int, error) {
	ref, err := memRef(in)
	if err != nil {
		return 0, err
	}
	store := in.Op == sass.OpSTL
	var buf [16]byte
	var lerr error
	total := 0
	Lanes(exec, func(l int) {
		if lerr != nil {
			return
		}
		t := w.Thread(l)
		off := e.laneAddr(t, in, ref)
		if store {
			storeFromRegs(t, in.Srcs[srcDataIdx(in)].Reg, buf[:], width)
			lerr = t.WriteLocal(off, buf[:nbytes])
		} else {
			if lerr = t.ReadLocal(off, buf[:nbytes]); lerr == nil {
				loadIntoRegs(t, in.Dsts[0].Reg, buf[:], width)
			}
		}
		total += nbytes
	})
	if lerr != nil {
		return 0, lerr
	}
	// Perfectly coalesced: charge one slot per line's worth of data.
	lines := (total + int(e.dev.Cfg.CoalesceBytes) - 1) / int(e.dev.Cfg.CoalesceBytes)
	return 4 + lines, nil
}

// srcDataIdx finds the store-data operand index (the first register source
// that is not the address).
func srcDataIdx(in *sass.Instruction) int {
	for i, s := range in.Srcs {
		if s.Kind == sass.OpdReg {
			return i
		}
	}
	return len(in.Srcs) - 1
}

// execShared handles LDS/STS against the CTA scratchpad.
func (e *engine) execShared(w *Warp, in *sass.Instruction, exec uint32, width sass.Width, nbytes int) (int, error) {
	ref, err := memRef(in)
	if err != nil {
		return 0, err
	}
	store := in.Op == sass.OpSTS
	sh := w.CTA.Shared
	var buf [16]byte
	var lerr error
	Lanes(exec, func(l int) {
		if lerr != nil {
			return
		}
		t := w.Thread(l)
		off := e.laneAddr(t, in, ref)
		if store {
			storeFromRegs(t, in.Srcs[srcDataIdx(in)].Reg, buf[:], width)
			lerr = sh.Write(off, buf[:nbytes])
		} else {
			if lerr = sh.Read(off, buf[:nbytes]); lerr == nil {
				loadIntoRegs(t, in.Dsts[0].Reg, buf[:], width)
			}
		}
	})
	return 2, lerr
}

// execGeneric handles LD/ST/LDG/STG/TLD: generic addresses decoded per lane.
func (e *engine) execGeneric(w *Warp, in *sass.Instruction, exec uint32, width sass.Width, nbytes int) (int, error) {
	ref, err := memRef(in)
	if err != nil {
		return 0, err
	}
	store := in.Op == sass.OpST || in.Op == sass.OpSTG
	forceGlobal := in.Op == sass.OpLDG || in.Op == sass.OpSTG || in.Op == sass.OpTLD

	var addrs [WarpSize]uint64
	var active uint32 // the lanes with a global address
	var buf [16]byte
	var lerr error
	Lanes(exec, func(l int) {
		if lerr != nil {
			return
		}
		t := w.Thread(l)
		addr := e.laneAddr(t, in, ref)
		space, off := mem.Decode(addr)
		if forceGlobal && space != mem.SpaceGlobal {
			lerr = &mem.Fault{Space: mem.SpaceGlobal, Addr: addr, Write: store,
				Why: fmt.Sprintf("%s requires a global address", in.Op)}
			return
		}
		switch space {
		case mem.SpaceGlobal:
			addrs[l] = addr
			active |= 1 << l
			if store {
				storeFromRegs(t, in.Srcs[srcDataIdx(in)].Reg, buf[:], width)
				lerr = e.dev.Global.Write(addr, buf[:nbytes])
			} else {
				if lerr = e.dev.Global.Read(addr, buf[:nbytes]); lerr == nil {
					loadIntoRegs(t, in.Dsts[0].Reg, buf[:], width)
				}
			}
		case mem.SpaceShared:
			if store {
				storeFromRegs(t, in.Srcs[srcDataIdx(in)].Reg, buf[:], width)
				lerr = w.CTA.Shared.Write(off, buf[:nbytes])
			} else {
				if lerr = w.CTA.Shared.Read(off, buf[:nbytes]); lerr == nil {
					loadIntoRegs(t, in.Dsts[0].Reg, buf[:], width)
				}
			}
		case mem.SpaceLocal:
			if store {
				storeFromRegs(t, in.Srcs[srcDataIdx(in)].Reg, buf[:], width)
				lerr = t.WriteLocal(off, buf[:nbytes])
			} else {
				if lerr = t.ReadLocal(off, buf[:nbytes]); lerr == nil {
					loadIntoRegs(t, in.Dsts[0].Reg, buf[:], width)
				}
			}
		default:
			lerr = &mem.Fault{Space: mem.SpaceInvalid, Addr: addr, Write: store,
				Why: "generic address maps to no space"}
		}
	})
	if lerr != nil {
		return 0, lerr
	}
	cost := 1
	if active != 0 {
		st := &e.sms[w.CTA.SM]
		res := &e.dev.perSM[w.CTA.SM].coalRes
		e.dev.Coal.CoalesceWarp(&mem.WarpOp{Exec: active, Width: nbytes, Addrs: &addrs}, res)
		st.globalTransactions += uint64(res.UniqueLines())
		if e.fence != nil && !e.fence(res.Lines, accessOf(store)) {
			return 0, e.fenced(w, accessOf(store))
		}
		if e.probe != nil {
			e.probe.touch(w.CTA.Index, res.Lines, accessOf(store))
		}
		cost = st.hier.AccessLines(res.Lines, store)
		if e.dev.MemWatch != nil {
			e.dev.MemWatch(MemAccess{
				PC: w.PC, SM: w.CTA.SM,
				Warp:  w.CTA.Index*len(w.CTA.Warps) + w.IDinCTA,
				Store: store, Res: *res,
			})
		}
	}
	return cost, nil
}

// execAtomicGlobal handles ATOM/RED: one batched read-modify-write of the
// exec lanes' words, applied in ascending lane order up to the first lane
// whose address is not global or faults, every earlier lane's old value
// written back. A fenced launch asks the fence about a reduction's lines
// and stops at any other global atomic, before either touches memory.
func (e *engine) execAtomicGlobal(w *Warp, in *sass.Instruction, exec uint32) (int, error) {
	ref, err := memRef(in)
	if err != nil {
		return 0, err
	}
	wide := in.Mods.Width == sass.W64
	op, err := atomOp(in, in.Mods.Unsigned || wide) // 64-bit MIN and MAX compare unsigned
	if err != nil {
		return 0, err
	}
	b := mem.AtomicBatch{Op: op, Width: 4}
	if wide {
		b.Width = 8
	}
	hasDst := in.Op == sass.OpATOM && len(in.Dsts) > 0 && in.Dsts[0].Kind == sass.OpdReg && in.Dsts[0].Reg != sass.RZ
	di := srcDataIdx(in)
	cas := in.Mods.Atom == sass.AtomCAS && di+1 < len(in.Srcs)
	var addrs [WarpSize]uint64
	var addrBits uint64 // the staged addresses ORed
	var active uint32   // the lanes staged into b
	var lanes [WarpSize]uint8
	var lerr error
	for m := exec; m != 0; m &= m - 1 {
		l := lane(m)
		t := &w.threads[l]
		addr := e.laneAddr(t, in, ref)
		if !mem.IsGlobal(addr) {
			lerr = &mem.Fault{Space: mem.SpaceGlobal, Addr: addr, Write: true,
				Why: "atomic requires a global address"}
			break
		}
		addrs[l], addrBits = addr, addrBits|addr
		active |= 1 << l
		b.Addrs[b.N], b.Vals[b.N] = addr, atomOperand(t, in.Srcs[di].Reg, b.Width)
		if cas {
			b.Swaps[b.N] = atomOperand(t, in.Srcs[di+1].Reg, b.Width)
		}
		lanes[b.N] = uint8(l)
		b.N++
	}
	// A reduction adds to aligned words: misaligned ones may overlap, and
	// additions to overlapping words do not commute.
	reduce := in.Mods.Atom == sass.AtomADD && in.Mods.Width.Bytes() == 4 && !hasDst && addrBits&3 == 0
	if e.fence != nil && !reduce {
		return 0, e.fenced(w, AccessAtomic)
	}
	res := &e.dev.perSM[w.CTA.SM].coalRes
	if active != 0 {
		e.dev.Coal.CoalesceWarp(&mem.WarpOp{Exec: active, Width: in.Mods.Width.Bytes(), Addrs: &addrs}, res)
		if e.fence != nil && !e.fence(res.Lines, AccessReduce) {
			return 0, e.fenced(w, AccessReduce)
		}
		if e.probe != nil {
			if reduce {
				e.probe.reduce(w.CTA.Index, res.Lines, &b) // b.Vals still holds the operands
			} else {
				e.probe.atomic(w.CTA.Index, res.Lines)
			}
		}
	}
	n, err := e.dev.Global.AtomicWarp(&b)
	if hasDst {
		for i := 0; i < n; i++ {
			t := &w.threads[lanes[i]]
			if wide {
				t.WriteReg64(in.Dsts[0].Reg, b.Vals[i])
			} else {
				t.WriteReg(in.Dsts[0].Reg, uint32(b.Vals[i]))
			}
		}
	}
	if err == nil {
		err = lerr
	}
	if err != nil {
		return 0, err
	}
	cost := 1
	if active != 0 {
		st := &e.sms[w.CTA.SM]
		st.globalTransactions += uint64(res.UniqueLines())
		cost = st.hier.AccessLines(res.Lines, true) + res.NumActive
	}
	return cost, nil
}

// atomOperand reads an atomic's operand register (pair, for 8 bytes).
func atomOperand(t *Thread, r uint8, width int) uint64 {
	if width == 8 {
		return t.ReadReg64(r)
	}
	return uint64(t.ReadReg(r))
}

// atomOp is the memory unit's operation for an ATOM, RED or ATOMS operator;
// unsigned selects the unsigned MIN and MAX.
func atomOp(in *sass.Instruction, unsigned bool) (mem.AtomOp, error) {
	a := in.Mods.Atom
	if a > sass.AtomCAS {
		return 0, fmt.Errorf("%s: undefined atomic operator %d", in.Op, a)
	}
	op := mem.AtomOp(a) // the unit's first eight operations are the ISA's
	if (a == sass.AtomMIN || a == sass.AtomMAX) && unsigned {
		op += mem.AtomMinU - mem.AtomMin
	}
	return op, nil
}

// execAtomicShared handles ATOMS on the CTA scratchpad.
func (e *engine) execAtomicShared(w *Warp, in *sass.Instruction, exec uint32) (int, error) {
	ref, err := memRef(in)
	if err != nil {
		return 0, err
	}
	op, err := atomOp(in, in.Mods.Unsigned)
	if err != nil {
		return 0, err
	}
	hasDst := len(in.Dsts) > 0 && in.Dsts[0].Kind == sass.OpdReg && in.Dsts[0].Reg != sass.RZ
	var lerr error
	n := 0
	Lanes(exec, func(l int) {
		if lerr != nil {
			return
		}
		n++
		t := w.Thread(l)
		off := e.laneAddr(t, in, ref)
		old, err := w.CTA.Shared.Read32(off)
		if err != nil {
			lerr = err
			return
		}
		di := srcDataIdx(in)
		b := t.ReadReg(in.Srcs[di].Reg)
		var c uint32
		if in.Mods.Atom == sass.AtomCAS && di+1 < len(in.Srcs) {
			c = t.ReadReg(in.Srcs[di+1].Reg)
		}
		if err := w.CTA.Shared.Write32(off, uint32(op.Apply(4, uint64(old), uint64(b), uint64(c)))); err != nil {
			lerr = err
			return
		}
		if hasDst {
			t.WriteReg(in.Dsts[0].Reg, old)
		}
	})
	return 2 + n, lerr
}
