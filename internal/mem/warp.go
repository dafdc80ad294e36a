package mem

// WarpOp is a reusable batch descriptor for one warp-level global-memory
// access: up to 32 lane accesses of a common width, applied in ascending
// lane order. The predecoded engine keeps one per SM shard so issuing a
// warp access performs no allocation and — unlike 32 calls through
// Read/Write — takes the metadata lock once and the covering stripe locks
// once instead of three lock operations per lane.
type WarpOp struct {
	N     int // number of staged lanes
	Store bool
	Width int // bytes per lane access (1..16)
	Addrs [32]uint64
	Data  [32][16]byte // staged store data / returned load data, Width bytes per lane
}

// AccessWarp validates and applies the staged lane accesses in ascending
// order with per-lane fault semantics identical to issuing Read/Write
// once per lane: validation checks lanes in order and stops at the first
// fault, the data of every earlier lane is still transferred, and the
// returned fault carries the same space/address/why/write fields. It
// returns the number of lanes applied; when n < op.N, err is lane n's
// fault.
//
// The covering stripe locks are held across the whole batch, so the warp
// access is atomic with respect to other SMs — strictly stronger than the
// lane-at-a-time path, and indistinguishable from it in any deterministic
// schedule since per-lane interleavings with another SM were never
// ordered to begin with.
func (g *Global) AccessWarp(op *WarpOp) (int, error) {
	w := uint64(op.Width)

	// One metadata read lock validates every lane. The covering-span check
	// comes first: when a single allocation (or the mapped window) covers
	// [lo, hi+width) — the overwhelmingly common case — one lookup clears
	// all 32 lanes. A span failure does not imply a lane fault (the lanes
	// may straddle two adjacent allocations), so it falls back to the
	// per-lane walk, which also pins the exact faulting lane.
	lo, hi := op.Addrs[0], op.Addrs[0]
	for i := 1; i < op.N; i++ {
		if a := op.Addrs[i]; a < lo {
			lo = a
		} else if a > hi {
			hi = a
		}
	}
	n := op.N
	var ferr error
	g.mu.RLock()
	if g.findAlloc(lo, hi-lo+w) != nil {
		for i := 0; i < op.N; i++ {
			if err := g.findAlloc(op.Addrs[i], w); err != nil {
				f := err.(*Fault)
				f.Write = op.Store
				n, ferr = i, f
				break
			}
		}
	}
	g.mu.RUnlock()
	if n == 0 {
		return 0, ferr
	}

	// One ascending-order acquisition of the union of covering stripes.
	if n < op.N {
		lo, hi = op.Addrs[0], op.Addrs[0]
		for i := 1; i < n; i++ {
			if a := op.Addrs[i]; a < lo {
				lo = a
			} else if a > hi {
				hi = a
			}
		}
	}
	held := g.lockRange(lo, hi-lo+w)

	// Transfer with a one-page cache: coalesced warps touch one or two
	// pages, so most lanes skip the page-table lock entirely.
	var cachedPN uint64 = ^uint64(0)
	var cached *[pageSize]byte
	for i := 0; i < n; i++ {
		a := op.Addrs[i]
		buf := op.Data[i][:op.Width]
		pn := a >> pageShift
		off := a & (pageSize - 1)
		if off+w > pageSize {
			// Page-straddling access: take the general path.
			if op.Store {
				g.writeData(a, buf)
			} else {
				g.readData(a, buf)
			}
			continue
		}
		if pn != cachedPN {
			cachedPN = pn
			if op.Store {
				cached = g.pageRW(pn)
			} else {
				cached = g.pageRO(pn)
			}
		}
		switch {
		case op.Store:
			copy(cached[off:], buf)
		case cached == nil:
			// Read of a never-written page: zeros, like readData.
			clear(buf)
		default:
			copy(buf, cached[off:off+w])
		}
	}
	held.unlock()
	return n, ferr
}
