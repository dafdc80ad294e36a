package mem

import "fmt"

// Cache is a set-associative, LRU, write-through/no-write-allocate cache
// model used for the L1 (per SM) and L2 (shared) levels. Only tags are
// modeled; data always comes from the backing store, so the cache purely
// produces hit/miss statistics and timing inputs.
type Cache struct {
	name      string
	lineBytes uint64
	sets      int
	ways      int
	tags      [][]uint64 // [set][way] line address; ^uint64(0) = invalid
	lru       [][]uint8  // [set][way] age; 0 = MRU

	Stats CacheStats
}

// CacheStats accumulates cache event counts.
type CacheStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Add accumulates o into s (merging per-SM slice statistics into a
// device-wide total; sums are order-independent, so the merge is
// deterministic no matter how SM execution interleaved).
func (s *CacheStats) Add(o CacheStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// HitRate returns hits/accesses, or 0 for an idle cache.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// NewCache builds a cache model. sizeBytes must be divisible by
// ways*lineBytes.
func NewCache(name string, sizeBytes, lineBytes uint64, ways int) *Cache {
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		panic("mem: cache line size must be a power of two")
	}
	sets := int(sizeBytes / (uint64(ways) * lineBytes))
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s: set count %d must be a nonzero power of two", name, sets))
	}
	c := &Cache{name: name, lineBytes: lineBytes, sets: sets, ways: ways}
	c.tags = make([][]uint64, sets)
	c.lru = make([][]uint8, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.lru[i] = make([]uint8, ways)
		for w := range c.tags[i] {
			c.tags[i][w] = ^uint64(0)
			c.lru[i][w] = uint8(w)
		}
	}
	return c
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() uint64 { return c.lineBytes }

func (c *Cache) setOf(addr uint64) int {
	return int((addr / c.lineBytes) % uint64(c.sets))
}

func (c *Cache) touch(set, way int) {
	age := c.lru[set][way]
	for w := 0; w < c.ways; w++ {
		if c.lru[set][w] < age {
			c.lru[set][w]++
		}
	}
	c.lru[set][way] = 0
}

// Access performs a load (store=false) or store (store=true) of the line
// containing addr and reports whether it hit. Loads allocate on miss;
// stores are write-through and do not allocate.
func (c *Cache) Access(addr uint64, store bool) bool {
	c.Stats.Accesses++
	line := addr &^ (c.lineBytes - 1)
	set := c.setOf(addr)
	for w := 0; w < c.ways; w++ {
		if c.tags[set][w] == line {
			c.Stats.Hits++
			c.touch(set, w)
			return true
		}
	}
	c.Stats.Misses++
	if store {
		return false // no write allocate
	}
	// Allocate into the LRU way.
	victim := 0
	for w := 0; w < c.ways; w++ {
		if c.lru[set][w] == uint8(c.ways-1) {
			victim = w
			break
		}
	}
	if c.tags[set][victim] != ^uint64(0) {
		c.Stats.Evictions++
	}
	c.tags[set][victim] = line
	c.touch(set, victim)
	return false
}

// Invalidate clears all tags (kernel-boundary flush) without resetting stats.
func (c *Cache) Invalidate() {
	for s := range c.tags {
		for w := range c.tags[s] {
			c.tags[s][w] = ^uint64(0)
			c.lru[s][w] = uint8(w)
		}
	}
}

// Reset returns the cache to its state after NewCache: cold, zero stats.
func (c *Cache) Reset() {
	c.Invalidate()
	c.Stats = CacheStats{}
}

// DRAM is a simple bandwidth/latency model: every L2 miss costs a fixed
// latency and occupies one transaction slot.
type DRAM struct {
	// LatencyCycles is the added latency of a DRAM access.
	LatencyCycles int
	// Transactions counts DRAM line fetches/writebacks.
	Transactions uint64
}

// Access records one DRAM transaction and returns its latency.
func (d *DRAM) Access() int {
	d.Transactions++
	return d.LatencyCycles
}

// Hierarchy ties one SM's L1 to its L2 slice and DRAM channel, producing a
// cost (in cycles) for a set of coalesced transactions. The L2 is modeled
// as banked per SM (each SM owns an address-interleaved slice of the total
// capacity), so every level of a Hierarchy is private to one SM goroutine
// and needs no locking.
type Hierarchy struct {
	L1   *Cache // may be nil (Kepler global loads often bypass L1)
	L2   *Cache
	DRAM *DRAM

	// L1Latency, L2Latency are hit latencies in cycles.
	L1Latency int
	L2Latency int
}

// AccessLines charges every line transaction through the hierarchy and
// returns the worst-case latency plus per-transaction occupancy cycles.
func (h *Hierarchy) AccessLines(lines []uint64, store bool) int {
	worst := 0
	for _, line := range lines {
		lat := 0
		hit := false
		if h.L1 != nil {
			hit = h.L1.Access(line, store)
			lat += h.L1Latency
		}
		if !hit {
			hit2 := h.L2.Access(line, store)
			lat += h.L2Latency
			if !hit2 {
				lat += h.DRAM.Access()
			}
		}
		if lat > worst {
			worst = lat
		}
	}
	// Each extra transaction occupies the LSU pipe for one cycle.
	return worst + len(lines)
}
