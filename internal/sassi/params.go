package sassi

import (
	"sassi/internal/device"
	"sassi/internal/mem"
	"sassi/internal/sass"
)

// The parameter views are lane-indexed windows over the objects the
// injected code built on each thread's stack. Nothing is read until an
// accessor is called, and every read is a simulated generic-memory load
// against that lane's object, exactly as compiled handler code would
// issue. Accessors of per-thread fields take the lane; accessors of
// fields the injector materialized from immediates (site id, encoding,
// register numbers, the spill map, ...) are the same on every lane and
// read the lowest active lane's copy.

// params is the shared core of the four views: the dispatch and the ABI
// register pair holding each lane's generic pointer to the object.
type params struct {
	d   *dispatch
	arg uint8
}

// at returns lane l's accessor and the generic address of its object (the
// value the ABI passed in the register pair).
func (p params) at(l int) (device.Lane, uint64) {
	c := p.d.warp.Lane(l)
	return c, uint64(c.ReadReg(p.arg)) | uint64(c.ReadReg(p.arg+1))<<32
}

// u32 loads the word at byte offset off of lane l's object.
func (p params) u32(l int, off int64) uint32 {
	c, addr := p.at(l)
	return c.ReadGeneric32(addr + uint64(off))
}

// put stores the word at byte offset off of lane l's object.
func (p params) put(l int, off int64, v uint32) {
	c, addr := p.at(l)
	c.WriteGeneric32(addr+uint64(off), v)
}

// static loads a warp-uniform word: the lowest active lane's copy.
func (p params) static(off int64) uint32 {
	return p.u32(device.Ffs(p.d.warp.ActiveMask())-1, off)
}

// BeforeParams is the handler-side view of the SASSIBeforeParams objects
// (ABI argument 0). The same layout serves after-sites (SASSIAfterParams).
type BeforeParams struct{ params }

// ID returns the site's unique id.
func (bp BeforeParams) ID() int32 { return int32(bp.static(bpID)) }

// InstrWillExecute reports whether the instrumented instruction's guard
// passes for lane l.
func (bp BeforeParams) InstrWillExecute(l int) bool { return bp.u32(l, bpWillExec) != 0 }

// FnAddr returns the kernel's pseudo base address.
func (bp BeforeParams) FnAddr() int32 { return int32(bp.static(bpFnAddr)) }

// InsOffset returns the instruction's byte offset within the kernel.
func (bp BeforeParams) InsOffset() int32 { return int32(bp.static(bpInsOffset)) }

// InsAddr returns FnAddr+InsOffset: a stable, unique instruction address
// (the handlers' hash-table key, as in the paper's find(bp->GetInsAddr())).
func (bp BeforeParams) InsAddr() int32 { return bp.FnAddr() + bp.InsOffset() }

// InsEncoding returns the packed static-properties word.
func (bp BeforeParams) InsEncoding() uint32 { return bp.static(bpInsEncoding) }

// Opcode returns the instrumented instruction's opcode.
func (bp BeforeParams) Opcode() sass.Opcode { return sass.SummaryOpcode(bp.InsEncoding()) }

// Classification queries, mirroring the paper's Figure 2(b) methods.

// IsMem reports whether the instruction touches memory.
func (bp BeforeParams) IsMem() bool { return sass.SummaryIsMem(bp.InsEncoding()) }

// IsMemRead reports whether the instruction reads memory.
func (bp BeforeParams) IsMemRead() bool { return sass.SummaryIsMemRead(bp.InsEncoding()) }

// IsMemWrite reports whether the instruction writes memory.
func (bp BeforeParams) IsMemWrite() bool { return sass.SummaryIsMemWrite(bp.InsEncoding()) }

// IsSpillOrFill reports whether the instruction is a local (stack) access.
func (bp BeforeParams) IsSpillOrFill() bool { return sass.SummaryIsSpillFill(bp.InsEncoding()) }

// IsSurfaceMemory is always false in this model (no surface memory).
func (bp BeforeParams) IsSurfaceMemory() bool { return false }

// IsControlXfer reports whether the instruction may transfer control.
func (bp BeforeParams) IsControlXfer() bool { return sass.SummaryIsCtrlXfer(bp.InsEncoding()) }

// IsCondControlXfer reports whether it is a *conditional* control transfer.
func (bp BeforeParams) IsCondControlXfer() bool {
	return bp.IsControlXfer() && sass.SummaryIsGuarded(bp.InsEncoding())
}

// IsSync reports whether the instruction synchronizes.
func (bp BeforeParams) IsSync() bool { return sass.SummaryIsSync(bp.InsEncoding()) }

// IsNumeric reports whether the instruction does arithmetic.
func (bp BeforeParams) IsNumeric() bool { return sass.SummaryIsNumeric(bp.InsEncoding()) }

// IsTexture reports whether the instruction reads texture memory.
func (bp BeforeParams) IsTexture() bool { return sass.SummaryIsTexture(bp.InsEncoding()) }

// Register value access with spill-map resolution. Registers that the
// injector spilled live in the object's spill slots; reading/writing them
// must go through the slots so that handler writes survive the restore
// sequence (how fault injection mutates ISA state, §8).

// spillSlot returns the slot index holding register r, or -1. The spill
// map is decided at injection time, so it is the same on every lane and
// is read once per dispatch.
func (bp BeforeParams) spillSlot(r uint8) int {
	d := bp.d
	if d.spillN < 0 {
		d.spillN = min(int(bp.static(bpSpillCount)), len(d.spillReg))
		for slot := 0; slot < d.spillN; slot += 4 {
			word := bp.static(bpSpillRegs + int64(slot))
			for i := range 4 {
				d.spillReg[slot+i] = uint8(word >> (uint(i) * 8))
			}
		}
	}
	for slot, reg := range d.spillReg[:d.spillN] {
		if reg == r {
			return slot
		}
	}
	return -1
}

// GetRegValue reads lane l's GPR r at the instrumentation site.
func (bp BeforeParams) GetRegValue(l int, r uint8) uint32 {
	if slot := bp.spillSlot(r); slot >= 0 {
		return bp.u32(l, bpGPRSpill+int64(slot)*4)
	}
	return bp.d.warp.Lane(l).ReadReg(r)
}

// SetRegValue writes lane l's GPR r, routing through the spill slot when
// needed so the value is what the restore sequence reinstates.
func (bp BeforeParams) SetRegValue(l int, r uint8, v uint32) {
	if slot := bp.spillSlot(r); slot >= 0 {
		bp.put(l, bpGPRSpill+int64(slot)*4, v)
		return
	}
	bp.d.warp.Lane(l).WriteReg(r, v)
}

// GetPredValue reads lane l's predicate p as spilled at the site.
func (bp BeforeParams) GetPredValue(l int, p uint8) bool {
	return bp.u32(l, bpPRSpill)&(1<<p) != 0
}

// SetPredValue writes lane l's predicate p through the spill slot.
func (bp BeforeParams) SetPredValue(l int, p uint8, v bool) {
	w := bp.u32(l, bpPRSpill)
	if v {
		w |= 1 << p
	} else {
		w &^= 1 << p
	}
	bp.put(l, bpPRSpill, w)
}

// GetCCValue reads lane l's condition code as spilled at the site.
func (bp BeforeParams) GetCCValue(l int) uint8 { return uint8(bp.u32(l, bpCCSpill)) & 0xf }

// SetCCValue writes lane l's condition code through the spill slot.
func (bp BeforeParams) SetCCValue(l int, v uint8) { bp.put(l, bpCCSpill, uint32(v&0xf)) }

// MemoryParams is the handler-side view of SASSIMemoryParams (ABI
// argument 1 of sites instrumented with PassMemoryInfo).
type MemoryParams struct{ params }

// Address returns lane l's 64-bit effective (generic) address.
func (mp MemoryParams) Address(l int) uint64 {
	c, addr := mp.at(l)
	return c.ReadGeneric64(addr + mpAddress)
}

// Width returns the per-thread access width in bytes.
func (mp MemoryParams) Width() int { return int(mp.static(mpWidth)) }

// IsLoad reports whether the access reads memory.
func (mp MemoryParams) IsLoad() bool { return sass.SummaryIsMemRead(mp.static(mpProperties)) }

// IsStore reports whether the access writes memory.
func (mp MemoryParams) IsStore() bool { return sass.SummaryIsMemWrite(mp.static(mpProperties)) }

// IsAtomic reports whether the access is a read-modify-write.
func (mp MemoryParams) IsAtomic() bool { return sass.SummaryIsAtomic(mp.static(mpProperties)) }

// Domain returns the statically known memory space (SpaceInvalid when the
// op is generic and the space is only known from the address).
func (mp MemoryParams) Domain() mem.Space { return mem.Space(mp.static(mpDomain)) }

// IsGlobal reports whether lane l's effective address maps to global
// memory (the __isGlobal check of the paper's Figure 6 handler).
func (mp MemoryParams) IsGlobal(l int) bool { return mem.IsGlobal(mp.Address(l)) }

// CondBranchParams is the handler-side view of SASSICondBranchParams.
type CondBranchParams struct{ params }

// Direction reports whether lane l will take the branch (the paper's
// brp->GetDirection()).
func (cb CondBranchParams) Direction(l int) bool { return cb.u32(l, cbDirection) != 0 }

// TakenOffset returns the branch target's byte offset.
func (cb CondBranchParams) TakenOffset() int32 { return int32(cb.static(cbTakenOffset)) }

// FallthroughOffset returns the fall-through instruction's byte offset.
func (cb CondBranchParams) FallthroughOffset() int32 { return int32(cb.static(cbFallOffset)) }

// RegisterParams is the handler-side view of SASSIRegisterParams. Register
// values resolve through the BeforeParams spill map, so the struct carries
// its sibling view.
type RegisterParams struct {
	params
	bp BeforeParams
}

// NumGPRDsts returns the number of destination GPRs.
func (rp RegisterParams) NumGPRDsts() int { return int(rp.static(rpNumDsts)) }

// GPRDst returns the i-th destination register number.
func (rp RegisterParams) GPRDst(i int) uint8 { return uint8(rp.static(rpDstRegs + int64(i)*4)) }

// NumGPRSrcs returns the number of source GPRs.
func (rp RegisterParams) NumGPRSrcs() int { return int(rp.static(rpNumSrcs)) }

// GPRSrc returns the i-th source register number.
func (rp RegisterParams) GPRSrc(i int) uint8 { return uint8(rp.static(rpSrcRegs + int64(i)*4)) }

// GetRegValue reads lane l's register at the site (spill-aware).
func (rp RegisterParams) GetRegValue(l int, r uint8) uint32 { return rp.bp.GetRegValue(l, r) }

// SetRegValue writes lane l's register at the site (spill-aware).
func (rp RegisterParams) SetRegValue(l int, r uint8, v uint32) { rp.bp.SetRegValue(l, r, v) }
