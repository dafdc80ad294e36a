package sim

import (
	"math"

	"sassi/internal/sass"
)

// CC flag bits of the 4-bit condition code register.
const (
	CCZero  uint8 = 1 << 0
	CCSign  uint8 = 1 << 1
	CCCarry uint8 = 1 << 2
	CCOvf   uint8 = 1 << 3
)

// Thread is one lane's view of its warp's architectural state: its
// identity, and accessors for the registers, predicates, condition code and
// local memory the warp stores warp-major (see Warp).
type Thread struct {
	// Identity.
	TidX, TidY, TidZ uint32
	FlatTid          uint32
	CtaX, CtaY, CtaZ uint32
	LaneID           uint32
	GlobalFlat       uint64 // unique over the whole grid
	warp             *Warp
}

// NumRegs returns the size of the thread's register file.
func (t *Thread) NumRegs() int { return len(t.warp.regs) / WarpSize }

// ReadReg returns GPR r (RZ reads zero).
func (t *Thread) ReadReg(r uint8) uint32 {
	if r == sass.RZ {
		return 0
	}
	return t.warp.regs[int(r)*WarpSize+int(t.LaneID)]
}

// WriteReg sets GPR r (writes to RZ are dropped).
func (t *Thread) WriteReg(r uint8, v uint32) {
	if r == sass.RZ {
		return
	}
	t.warp.regs[int(r)*WarpSize+int(t.LaneID)] = v
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
	return t.warp.preds[p]>>t.LaneID&1 != 0
}

// WritePred sets predicate p (writes to PT are dropped).
func (t *Thread) WritePred(p uint8, v bool) {
	var m uint32
	if v {
		m = ^uint32(0)
	}
	t.warp.writePreds(p, 1<<t.LaneID, m)
}

// PredBits returns the predicate file as P2R reads it: bit n is Pn, bit 7
// (PT) always set.
func (t *Thread) PredBits() uint8 {
	return uint8(t.warp.predBytes()[t.LaneID/8] >> (8 * (t.LaneID % 8)))
}

// SetPredBits sets P0..P6 from bits 0..6 of v; PT stays set.
func (t *Thread) SetPredBits(v uint8) {
	var b [WarpSize / 8]uint64
	b[t.LaneID/8] = uint64(v) << (8 * (t.LaneID % 8))
	t.warp.setPredBytes(&b, 1<<t.LaneID)
}

// ReadCC returns the 4-bit condition code.
func (t *Thread) ReadCC() uint8 { return t.warp.cc[t.LaneID] }

// WriteCC sets the condition code.
func (t *Thread) WriteCC(v uint8) { t.warp.cc[t.LaneID] = v }

// LocalSize returns the size of the thread's local memory in bytes.
func (t *Thread) LocalSize() int { return t.warp.local.Size() }

// ReadLocal copies the thread's local memory at off into buf.
func (t *Thread) ReadLocal(off uint64, buf []byte) error {
	return t.warp.local.Read(int(t.LaneID), off, buf)
}

// WriteLocal copies data into the thread's local memory at off.
func (t *Thread) WriteLocal(off uint64, data []byte) error {
	return t.warp.local.Write(int(t.LaneID), off, data)
}

// ReadLocal32 loads the 32-bit word of the thread's local memory at off.
func (t *Thread) ReadLocal32(off uint64) (uint32, error) {
	return t.warp.local.Read32(int(t.LaneID), off)
}

// WriteLocal32 stores a 32-bit word into the thread's local memory at off.
func (t *Thread) WriteLocal32(off uint64, v uint32) error {
	return t.warp.local.Write32(int(t.LaneID), off, v)
}

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
