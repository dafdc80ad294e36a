package mem

import (
	"encoding/binary"
	"math/bits"
)

// Shape is how the lane addresses of a warp access are laid out, as the
// issuing SM found them in one pass over its address row. It lets the
// access skip work the layout makes redundant; it never changes what the
// access does.
type Shape uint8

const (
	// ShapeGeneral is any layout.
	ShapeGeneral Shape = iota
	// ShapeAscending: addresses strictly ascend in lane order, so the
	// lowest and highest exec lanes hold the lowest and highest address.
	ShapeAscending
	// ShapeUniform: every exec lane uses one address.
	ShapeUniform
)

// WarpOp is one warp-level global-memory access: every lane l of Exec moves
// Width bytes (1, 2, 4, 8 or 16) at Addrs[l], in ascending lane order —
// except that a uniform access reads only its lowest exec lane's address. Its
// data are register-major word rows, the layout of the warp's register
// file: word i of lane l is Rows[i][l], for Width/4 rows, or one row whose
// low bytes a 1- or 2-byte access moves (zero-extended on a load). A store
// reads the rows; a load writes them in the lanes it applies. The engine
// keeps one per SM, so a warp access allocates nothing.
type WarpOp struct {
	Exec  uint32
	Store bool
	Width int
	Shape Shape
	Addrs *[32]uint64
	Rows  [4]*[32]uint32
}

// AccessWarp validates and applies the lane accesses in ascending lane
// order with per-lane fault semantics identical to issuing Read/Write once
// per lane: validation checks lanes in order and stops at the first fault,
// every earlier lane is still transferred, and the returned fault carries
// the same space/address/why/write fields. It returns the number of lanes
// applied — the lowest n of Exec; when n is less than all of them, err is
// the next lane's fault.
//
// A uniform access is one transfer: a load reads the word once and
// broadcasts it to every exec lane, a store writes the data of the highest
// exec lane, the value the lanes' ascending stores leave behind; it faults,
// applying nothing, exactly where its first lane would.
//
// The covering stripe locks are held across the whole access, so it is
// atomic with respect to other SMs — strictly stronger than the
// lane-at-a-time path, and indistinguishable from it in any deterministic
// schedule since per-lane interleavings with another SM were never
// ordered to begin with.
func (g *Global) AccessWarp(op *WarpOp) (int, error) {
	n, held, pn, page, ferr := g.admit(op.Addrs, op.Exec, op.Shape, uint64(op.Width), op.Store)
	if n == 0 {
		return 0, ferr
	}
	lanes, moves := op.Exec, n
	uniform := op.Shape == ShapeUniform
	first := op.Addrs[lane(op.Exec)]
	if uniform && op.Store {
		lanes, moves = 1<<(31-bits.LeadingZeros32(op.Exec)), 1
	} else if uniform {
		lanes, moves = op.Exec&-op.Exec, 1
	}

	// Transfer with a one-page cache, seeded with admit's page: coalesced
	// warps touch one or two pages, so most lanes skip the page-table lock
	// entirely, and a single-page warp never takes it.
	w := uint64(op.Width)
	var zeros [16]byte
	for m, i := lanes, 0; i < moves; m, i = m&(m-1), i+1 {
		l := lane(m)
		a := op.Addrs[l]
		if uniform {
			a = first
		}
		off := a & (pageSize - 1)
		if off+w > pageSize {
			// Page-straddling access: take the general path.
			var buf [16]byte
			b := buf[:w]
			if op.Store {
				op.pack(l, b)
				g.writeData(a, b)
			} else {
				g.readData(a, b)
				op.unpack(l, b)
			}
			continue
		}
		if a>>pageShift != pn {
			pn = a >> pageShift
			if op.Store {
				page = g.pageRW(pn)
			} else {
				page = g.pageRO(pn)
			}
		}
		switch {
		case op.Store:
			op.pack(l, page[off:off+w])
		case page == nil:
			// Read of a never-written page: zeros, like readData.
			op.unpack(l, zeros[:w])
		default:
			op.unpack(l, page[off:off+w])
		}
	}
	held.unlock()
	if uniform && !op.Store {
		src := lane(lanes)
		for _, row := range op.Rows[:max(1, op.Width/4)] {
			v := row[src]
			for m := op.Exec; m != 0; m &= m - 1 {
				row[lane(m)] = v
			}
		}
	}
	return n, ferr
}

// pack copies lane l's Width bytes out of the rows into b.
func (op *WarpOp) pack(l int, b []byte) {
	switch op.Width {
	case 1:
		b[0] = byte(op.Rows[0][l])
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(op.Rows[0][l]))
	default:
		for i := range op.Width / 4 {
			binary.LittleEndian.PutUint32(b[4*i:], op.Rows[i][l])
		}
	}
}

// unpack sets lane l's words in the rows from the Width bytes of b.
func (op *WarpOp) unpack(l int, b []byte) {
	switch op.Width {
	case 1:
		op.Rows[0][l] = uint32(b[0])
	case 2:
		op.Rows[0][l] = uint32(binary.LittleEndian.Uint16(b))
	default:
		for i := range op.Width / 4 {
			op.Rows[i][l] = binary.LittleEndian.Uint32(b[4*i:])
		}
	}
}

// lane returns the lowest lane of a non-empty mask.
func lane(m uint32) int { return bits.TrailingZeros32(m) & 31 }

// admit validates the w-byte accesses of the lanes of mask at addrs, in
// ascending lane order, under one metadata read lock, then takes the data
// stripes covering the ones that passed, once, in ascending order. It
// returns how many passed — all, or those before the first fault, returned
// as err with Write set to write — and the held stripes, which the caller
// releases unless n is 0. Under the same lock it looks up the page of the
// lowest address: pn and page, for the caller's page cache — or ^0 and nil
// when that page has not been created, which the caller must then look up
// under the stripe.
//
// The covering-span check comes first: when a single allocation (or the
// mapped window) covers [lo, hi+w) — the overwhelmingly common case — one
// lookup clears the whole batch. A span failure does not imply a fault
// (the accesses may straddle two adjacent allocations), so it falls back
// to the walk, which also pins the exact faulting entry. The shape gives
// the span without a scan: one address, or the first and last lane's.
func (g *Global) admit(addrs *[32]uint64, mask uint32, shape Shape, w uint64, write bool) (n int, held stripeLock, pn uint64, page *[pageSize]byte, err error) {
	pn = ^uint64(0)
	if mask == 0 {
		return 0, held, pn, nil, nil
	}
	lo, hi := spanOf(addrs, mask, shape)
	n = bits.OnesCount32(mask)
	g.mu.RLock()
	if g.findAlloc(lo, hi-lo+w) != nil {
		for m, i := mask, 0; m != 0; m, i = m&(m-1), i+1 {
			if ferr := g.findAlloc(addrs[lane(m)], w); ferr != nil {
				f := ferr.(*Fault)
				f.Write = write
				n, err = i, f
				mask &^= m // the lanes that passed
				break
			}
		}
	}
	if page = g.pages[lo>>pageShift]; page != nil {
		pn = lo >> pageShift
	}
	g.mu.RUnlock()
	if n == 0 {
		return 0, held, pn, nil, err
	}
	if err != nil {
		lo, hi = spanOf(addrs, mask, shape)
	}
	return n, g.lockRange(lo, hi-lo+w), pn, page, err
}

// spanOf returns the lowest and highest address of the lanes of a
// non-empty mask.
func spanOf(addrs *[32]uint64, mask uint32, shape Shape) (lo, hi uint64) {
	switch shape {
	case ShapeUniform:
		lo = addrs[lane(mask)]
		return lo, lo
	case ShapeAscending:
		return addrs[lane(mask)], addrs[31-bits.LeadingZeros32(mask)]
	}
	lo, hi = addrs[lane(mask)], addrs[lane(mask)]
	for m := mask & (mask - 1); m != 0; m &= m - 1 {
		a := addrs[lane(m)]
		lo, hi = min(lo, a), max(hi, a)
	}
	return lo, hi
}
