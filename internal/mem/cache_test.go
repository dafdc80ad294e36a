package mem

import "testing"

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1024, 64, 2) // 8 sets, 2 ways
	if c.Access(0, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0, false) {
		t.Error("warm access missed")
	}
	if !c.Access(32, false) {
		t.Error("same-line access missed")
	}
	if c.Stats.Accesses != 3 || c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if got := c.Stats.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %f", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1024, 64, 2) // 8 sets; addresses 64*8 apart share a set
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU, b is LRU
	c.Access(d, false) // evicts b
	if !c.Access(a, false) {
		t.Error("a evicted although MRU")
	}
	if c.Access(b, false) {
		t.Error("b still resident although LRU victim")
	}
	if c.Stats.Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestCacheStoreNoAllocate(t *testing.T) {
	c := NewCache(1024, 64, 2)
	c.Access(0, true) // write miss: no allocate
	if c.Access(0, false) {
		t.Error("store allocated a line")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1024, 64, 2)
	c.Access(0, false)
	c.Invalidate()
	if c.Access(0, false) {
		t.Error("line survived invalidate")
	}
}

func TestCacheRejectsBadGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCache(1024, 48, 2) }, // line not power of two
		func() { NewCache(100, 64, 2) },  // sets not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			fn()
		}()
	}
}

func TestDRAM(t *testing.T) {
	d := &DRAM{LatencyCycles: 300}
	if got := d.Access(); got != 300 {
		t.Errorf("latency = %d", got)
	}
	if d.Transactions != 1 {
		t.Errorf("transactions = %d", d.Transactions)
	}
}

func TestHierarchyAccessLines(t *testing.T) {
	h := Hierarchy{
		L1:        NewCache(1024, 64, 2),
		L2:        NewCache(4096, 64, 4),
		DRAM:      &DRAM{LatencyCycles: 100},
		L1Latency: 10, L2Latency: 40,
	}
	// Cold: L1 miss, L2 miss, DRAM: 10+40+100 + 1 transaction slot.
	if got := h.AccessLines([]uint64{0}, false); got != 151 {
		t.Errorf("cold access = %d, want 151", got)
	}
	// Warm: L1 hit: 10 + 1.
	if got := h.AccessLines([]uint64{0}, false); got != 11 {
		t.Errorf("warm access = %d, want 11", got)
	}
	// No L1 (bypass): cost goes through L2.
	h2 := Hierarchy{L2: h.L2, DRAM: h.DRAM, L2Latency: 40}
	if got := h2.AccessLines([]uint64{0}, false); got != 41 {
		t.Errorf("L2 hit without L1 = %d, want 41", got)
	}
	// Empty transaction list costs nothing.
	if got := h.AccessLines(nil, false); got != 0 {
		t.Errorf("empty = %d", got)
	}
}
