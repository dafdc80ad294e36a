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
	n, held, cachedPN, cached, ferr := g.admit(op.Addrs[:op.N], w, op.Store)
	if n == 0 {
		return 0, ferr
	}

	// Transfer with a one-page cache, seeded with admit's page: coalesced
	// warps touch one or two pages, so most lanes skip the page-table lock
	// entirely, and a single-page warp never takes it.
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

// admit validates a batch of w-byte accesses at addrs, in order, under one
// metadata read lock, then takes the data stripes covering the ones that
// passed, once, in ascending order. It returns how many passed — all, or
// those before the first fault, returned as err with Write set to write —
// and the held stripes, which the caller releases unless n is 0. Under the
// same lock it looks up the page of the lowest address: pn and page, for
// the caller's page cache — or ^0 and nil when that page has not been
// created, which the caller must then look up under the stripe.
//
// The covering-span check comes first: when a single allocation (or the
// mapped window) covers [lo, hi+w) — the overwhelmingly common case — one
// lookup clears the whole batch. A span failure does not imply a fault
// (the accesses may straddle two adjacent allocations), so it falls back
// to the walk, which also pins the exact faulting entry.
func (g *Global) admit(addrs []uint64, w uint64, write bool) (n int, held stripeLock, pn uint64, page *[pageSize]byte, err error) {
	pn = ^uint64(0)
	if len(addrs) == 0 {
		return 0, held, pn, nil, nil
	}
	lo, hi := span(addrs)
	n = len(addrs)
	g.mu.RLock()
	if g.findAlloc(lo, hi-lo+w) != nil {
		for i, a := range addrs {
			if ferr := g.findAlloc(a, w); ferr != nil {
				f := ferr.(*Fault)
				f.Write = write
				n, err = i, f
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
	if n < len(addrs) {
		lo, hi = span(addrs[:n])
	}
	return n, g.lockRange(lo, hi-lo+w), pn, page, err
}

// span returns the lowest and highest of a non-empty set of addresses.
func span(addrs []uint64) (lo, hi uint64) {
	lo, hi = addrs[0], addrs[0]
	for _, a := range addrs[1:] {
		lo, hi = min(lo, a), max(hi, a)
	}
	return lo, hi
}
