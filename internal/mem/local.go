package mem

import (
	"encoding/binary"
	"math/bits"
)

// WarpLocal is the local memory of one warp's 32 threads: per lane a stack
// (spills, instrumentation frames, parameter objects) plus the
// compiler-allocated local arrays, Size bytes each.
//
// The stack pointer register (R1 by ABI) holds a byte offset within a
// lane's space; the generic-space view of a local address is
// LocalBase+offset.
//
// Storage is interleaved by 4-byte word, the way hardware lays a warp's
// local memory out: word w of every lane sits in one 32-word row, so a warp
// access whose lanes all use one offset — Figure 2's spills and fills from
// a frame pointer uniform across the warp — is one bounds check and one
// row copy.
//
// Rows back only the suffix [base, size) that has been written, for all
// lanes at once: the stack grows down from size, and an instrumented warp
// touches one frame of a few hundred bytes at the top of a 4 KiB+
// allocation, so materialising the whole of it on the first store was most
// of an instrumented launch's allocation. No lane has ever written below
// base, so reads there return zeros, exactly what an eager zeroed
// allocation would hold; a store below base moves base down to a multiple
// of localGranule and copies what is there.
type WarpLocal struct {
	size  int
	base  int      // rows back [base, size); base == size until the first write
	words []uint32 // word w of lane l at words[(w-base/4)*32+l]
}

// warpLanes is the number of lanes a WarpLocal interleaves.
const warpLanes = 32

// localGranule is the power of two base is rounded down to. One granule
// holds a whole injected frame (112-176 bytes) when the frame does not
// straddle a multiple of it, so a site costs one allocation, at most two.
const localGranule = 256

// Reset reinitializes l to an empty local memory of size bytes per lane,
// releasing any materialized storage, so slab allocators can reuse
// WarpLocal values across CTAs.
func (l *WarpLocal) Reset(size int) {
	l.size, l.base, l.words = size, size, nil
}

// Size returns the local memory capacity of one lane in bytes.
func (l *WarpLocal) Size() int { return l.size }

// Materialized returns how many bytes of backing storage l holds, for all
// lanes together.
func (l *WarpLocal) Materialized() int { return 4 * len(l.words) }

func (l *WarpLocal) check(off uint64, n int, write bool) error {
	if !inBounds(off, n, l.size) {
		return &Fault{Space: SpaceLocal, Addr: LocalBase + off, Write: write,
			Why: "local access beyond per-thread allocation (stack overflow?)"}
	}
	return nil
}

// grow moves base down to cover a checked store at off < base.
func (l *WarpLocal) grow(off uint64) {
	base := int(off) &^ (localGranule - 1)
	words := make([]uint32, ((l.size+3)>>2-base>>2)*warpLanes)
	copy(words[(l.base>>2-base>>2)*warpLanes:], l.words)
	l.base, l.words = base, words
}

// row returns the storage row of the word holding byte off, which must be
// at or above base.
func (l *WarpLocal) row(off uint64) *[warpLanes]uint32 {
	return (*[warpLanes]uint32)(l.words[(int(off)>>2-l.base>>2)*warpLanes:])
}

// Read copies lane's local memory at off into buf.
func (l *WarpLocal) Read(lane int, off uint64, buf []byte) error {
	if err := l.check(off, len(buf), false); err != nil {
		return err
	}
	for i := 0; i < len(buf); i++ {
		o := off + uint64(i)
		switch {
		case int(o) < l.base:
			buf[i] = 0
		case o&3 == 0 && i+4 <= len(buf):
			binary.LittleEndian.PutUint32(buf[i:], l.row(o)[lane&(warpLanes-1)])
			i += 3
		default:
			buf[i] = byte(l.row(o)[lane&(warpLanes-1)] >> (8 * (o & 3)))
		}
	}
	return nil
}

// Write copies data into lane's local memory at off.
func (l *WarpLocal) Write(lane int, off uint64, data []byte) error {
	if err := l.check(off, len(data), true); err != nil {
		return err
	}
	if int(off) < l.base {
		l.grow(off)
	}
	for i, b := range data {
		o := off + uint64(i)
		sh := 8 * (o & 3)
		w := &l.row(o)[lane&(warpLanes-1)]
		*w = *w&^(0xff<<sh) | uint32(b)<<sh
	}
	return nil
}

// Read32 loads lane's 32-bit word at byte offset off.
func (l *WarpLocal) Read32(lane int, off uint64) (uint32, error) {
	if off&3 != 0 {
		var b [4]byte
		err := l.Read(lane, off, b[:])
		return binary.LittleEndian.Uint32(b[:]), err
	}
	if err := l.check(off, 4, false); err != nil {
		return 0, err
	}
	if int(off) < l.base {
		return 0, nil
	}
	return l.row(off)[lane&(warpLanes-1)], nil
}

// Write32 stores lane's 32-bit word at byte offset off.
func (l *WarpLocal) Write32(lane int, off uint64, v uint32) error {
	if off&3 != 0 {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return l.Write(lane, off, b[:])
	}
	if err := l.check(off, 4, true); err != nil {
		return err
	}
	if int(off) < l.base {
		l.grow(off)
	}
	l.row(off)[lane&(warpLanes-1)] = v
	return nil
}

// StoreRow is a warp's 4-byte local store at one offset for every lane:
// src[l] goes to off in the stack of every lane l of exec. The lanes own
// disjoint columns of the row, and an offset out of bounds for one lane is
// out of bounds for all, so it is one bounds check — failing, the first
// lane faults as Write32 would and nothing is written — and, for a
// word-aligned offset, one row copy.
func (l *WarpLocal) StoreRow(exec uint32, off uint64, src *[warpLanes]uint32) error {
	if exec == 0 {
		return nil
	}
	if err := l.check(off, 4, true); err != nil {
		return err
	}
	if off&3 != 0 {
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & (warpLanes - 1)
			_ = l.Write32(lane, off, src[lane])
		}
		return nil
	}
	if int(off) < l.base {
		l.grow(off)
	}
	row := l.row(off)
	if exec == ^uint32(0) {
		*row = *src
		return nil
	}
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m) & (warpLanes - 1)
		row[lane] = src[lane]
	}
	return nil
}

// StoreRow64 is a warp's 8-byte local store at one offset for every lane —
// the register pair (lo, hi) of lane l goes to off and off+4 in its stack:
// one bounds check covering all eight bytes, so a store that would run off
// the end faults as Write does having written nothing, then two row copies.
func (l *WarpLocal) StoreRow64(exec uint32, off uint64, lo, hi *[warpLanes]uint32) error {
	if exec == 0 {
		return nil
	}
	if err := l.check(off, 8, true); err != nil {
		return err
	}
	_ = l.StoreRow(exec, off, lo)
	return l.StoreRow(exec, off+4, hi)
}

// LoadRow is StoreRow's mirror: every lane l of exec loads its word at off
// into dst[l].
func (l *WarpLocal) LoadRow(exec uint32, off uint64, dst *[warpLanes]uint32) error {
	if exec == 0 {
		return nil
	}
	if err := l.check(off, 4, false); err != nil {
		return err
	}
	if off&3 != 0 || int(off) < l.base {
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & (warpLanes - 1)
			dst[lane], _ = l.Read32(lane, off)
		}
		return nil
	}
	row := l.row(off)
	if exec == ^uint32(0) {
		*dst = *row
		return nil
	}
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m) & (warpLanes - 1)
		dst[lane] = row[lane]
	}
	return nil
}
