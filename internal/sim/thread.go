package sim

import (
	"math"

	"sassi/internal/mem"
)

// CC flag bits of the 4-bit condition code register.
const (
	CCZero  uint8 = 1 << 0
	CCSign  uint8 = 1 << 1
	CCCarry uint8 = 1 << 2
	CCOvf   uint8 = 1 << 3
)

// Thread is one lane's architecturally visible state.
type Thread struct {
	Regs  []uint32 // general purpose registers; index RZ is unused
	Preds uint8    // predicate register file, bit n = Pn (bit 7 = PT, forced 1)
	CC    uint8    // condition code flags

	Local *mem.Local // per-thread local memory (stack)

	// Identity.
	TidX, TidY, TidZ uint32
	FlatTid          uint32
	CtaX, CtaY, CtaZ uint32
	LaneID           uint32
	GlobalFlat       uint64 // unique over the whole grid
	DynInstrs        uint64 // executed (guard-enabled) instructions
	warp             *Warp
}

// ReadReg returns GPR r (RZ reads zero).
func (t *Thread) ReadReg(r uint8) uint32 {
	if r == 255 {
		return 0
	}
	return t.Regs[r]
}

// WriteReg sets GPR r (writes to RZ are dropped).
func (t *Thread) WriteReg(r uint8, v uint32) {
	if r == 255 {
		return
	}
	t.Regs[r] = v
}

// ReadReg64 returns the register pair (r, r+1) as a 64-bit value.
func (t *Thread) ReadReg64(r uint8) uint64 {
	return uint64(t.ReadReg(r)) | uint64(t.ReadReg(r+1))<<32
}

// WriteReg64 writes a 64-bit value into the pair (r, r+1).
func (t *Thread) WriteReg64(r uint8, v uint64) {
	t.WriteReg(r, uint32(v))
	t.WriteReg(r+1, uint32(v>>32))
}

// ReadPred returns predicate p (PT reads true).
func (t *Thread) ReadPred(p uint8) bool {
	if p == 7 {
		return true
	}
	return t.Preds&(1<<p) != 0
}

// WritePred sets predicate p (writes to PT are dropped).
func (t *Thread) WritePred(p uint8, v bool) {
	if p == 7 {
		return
	}
	if v {
		t.Preds |= 1 << p
	} else {
		t.Preds &^= 1 << p
	}
}

// FlipRegBit flips one bit of GPR r — the fault-injection primitive.
func (t *Thread) FlipRegBit(r uint8, bit uint) {
	if r == 255 {
		return
	}
	t.Regs[r] ^= 1 << (bit & 31)
}

// FlipPredBit flips predicate p.
func (t *Thread) FlipPredBit(p uint8) { t.WritePred(p, !t.ReadPred(p)) }

// FlipCCBit flips one of the four condition-code bits.
func (t *Thread) FlipCCBit(bit uint) { t.CC ^= 1 << (bit & 3) }

// Warp returns the warp this thread belongs to.
func (t *Thread) Warp() *Warp { return t.warp }

// guardPasses evaluates a predicate guard for this thread.
func (t *Thread) guardPasses(reg uint8, neg bool) bool {
	v := t.ReadPred(reg)
	if neg {
		return !v
	}
	return v
}

// Float helpers.

func f32(u uint32) float32  { return math.Float32frombits(u) }
func f32b(f float32) uint32 { return math.Float32bits(f) }
func i32(u uint32) int32    { return int32(u) }
func u32(i int32) uint32    { return uint32(i) }
