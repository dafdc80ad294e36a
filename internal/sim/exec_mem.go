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

	var access mem.Access
	access.Width = nbytes
	access.Store = store
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
			access.Addrs[l] = addr
			access.Active |= 1 << l
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
	if access.Active != 0 {
		res := e.dev.Coal.Coalesce(&access)
		st := &e.sms[w.CTA.SM]
		st.globalTransactions += uint64(res.UniqueLines())
		cost = st.hier.AccessLines(res.Lines, store)
		if e.dev.MemWatch != nil {
			e.dev.MemWatch(MemAccess{
				PC: w.PC, SM: w.CTA.SM,
				Warp:  w.CTA.Index*len(w.CTA.Warps) + w.IDinCTA,
				Store: store, Res: res,
			})
		}
	}
	return cost, nil
}

// execAtomicGlobal handles ATOM/RED: per-lane serialized RMW on global
// memory, ascending lane order.
func (e *engine) execAtomicGlobal(w *Warp, in *sass.Instruction, exec uint32) (int, error) {
	ref, err := memRef(in)
	if err != nil {
		return 0, err
	}
	wide := in.Mods.Width == sass.W64
	hasDst := in.Op == sass.OpATOM && len(in.Dsts) > 0 && in.Dsts[0].Kind == sass.OpdReg && in.Dsts[0].Reg != sass.RZ
	var access mem.Access
	access.Width = in.Mods.Width.Bytes()
	access.Store = true
	var lerr error
	Lanes(exec, func(l int) {
		if lerr != nil {
			return
		}
		t := w.Thread(l)
		addr := e.laneAddr(t, in, ref)
		if !mem.IsGlobal(addr) {
			lerr = &mem.Fault{Space: mem.SpaceGlobal, Addr: addr, Write: true,
				Why: "atomic requires a global address"}
			return
		}
		access.Addrs[l] = addr
		access.Active |= 1 << l
		di := srcDataIdx(in)
		if wide {
			b := t.ReadReg64(in.Srcs[di].Reg)
			var c uint64
			if in.Mods.Atom == sass.AtomCAS && di+1 < len(in.Srcs) {
				c = t.ReadReg64(in.Srcs[di+1].Reg)
			}
			old, err := e.dev.Global.Atomic64(addr, func(o uint64) uint64 {
				return atomApply64(in.Mods.Atom, o, b, c)
			})
			if err != nil {
				lerr = err
				return
			}
			if hasDst {
				t.WriteReg64(in.Dsts[0].Reg, old)
			}
		} else {
			b := t.ReadReg(in.Srcs[di].Reg)
			var c uint32
			if in.Mods.Atom == sass.AtomCAS && di+1 < len(in.Srcs) {
				c = t.ReadReg(in.Srcs[di+1].Reg)
			}
			old, err := e.dev.Global.Atomic32(addr, func(o uint32) uint32 {
				return atomApply32(in.Mods.Atom, o, b, c, in.Mods.Unsigned)
			})
			if err != nil {
				lerr = err
				return
			}
			if hasDst {
				t.WriteReg(in.Dsts[0].Reg, old)
			}
		}
	})
	if lerr != nil {
		return 0, lerr
	}
	cost := 1
	if access.Active != 0 {
		res := e.dev.Coal.Coalesce(&access)
		st := &e.sms[w.CTA.SM]
		st.globalTransactions += uint64(res.UniqueLines())
		cost = st.hier.AccessLines(res.Lines, true) + res.NumActive
	}
	return cost, nil
}

// execAtomicShared handles ATOMS on the CTA scratchpad.
func (e *engine) execAtomicShared(w *Warp, in *sass.Instruction, exec uint32) (int, error) {
	ref, err := memRef(in)
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
		if err := w.CTA.Shared.Write32(off, atomApply32(in.Mods.Atom, old, b, c, in.Mods.Unsigned)); err != nil {
			lerr = err
			return
		}
		if hasDst {
			t.WriteReg(in.Dsts[0].Reg, old)
		}
	})
	return 2 + n, lerr
}

func atomApply32(op sass.AtomOp, old, b, c uint32, unsigned bool) uint32 {
	switch op {
	case sass.AtomADD:
		return old + b
	case sass.AtomMIN:
		if unsigned {
			if b < old {
				return b
			}
			return old
		}
		if int32(b) < int32(old) {
			return b
		}
		return old
	case sass.AtomMAX:
		if unsigned {
			if b > old {
				return b
			}
			return old
		}
		if int32(b) > int32(old) {
			return b
		}
		return old
	case sass.AtomAND:
		return old & b
	case sass.AtomOR:
		return old | b
	case sass.AtomXOR:
		return old ^ b
	case sass.AtomEXCH:
		return b
	case sass.AtomCAS:
		if old == b {
			return c
		}
		return old
	}
	return old
}

func atomApply64(op sass.AtomOp, old, b, c uint64) uint64 {
	switch op {
	case sass.AtomADD:
		return old + b
	case sass.AtomMIN:
		if b < old {
			return b
		}
		return old
	case sass.AtomMAX:
		if b > old {
			return b
		}
		return old
	case sass.AtomAND:
		return old & b
	case sass.AtomOR:
		return old | b
	case sass.AtomXOR:
		return old ^ b
	case sass.AtomEXCH:
		return b
	case sass.AtomCAS:
		if old == b {
			return c
		}
		return old
	}
	return old
}
