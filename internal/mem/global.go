package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

const pageShift = 16 // 64 KiB pages
const pageSize = 1 << pageShift

// numStripes is the number of data locks global memory is sharded over.
// Pages map onto stripes by page number, so SMs touching disjoint address
// ranges (the common case after coalescing) never contend.
const numStripes = 64

// Global is device (global) memory: a sparse paged byte store with a bump
// allocator and allocation tracking. Accesses outside any live allocation
// fault, which is how the simulator detects wild pointers.
//
// Global is safe for concurrent use from many goroutines: SMs execute in
// parallel and instrumentation handlers may run one goroutine per warp
// lane. Data accesses are serialized per page stripe rather than globally,
// so traffic to disjoint ranges proceeds in parallel while ATOM
// read-modify-write semantics stay exact (the stripe lock covers the whole
// RMW). Metadata (page table, allocator, bounds mode) sits behind a
// separate RWMutex.
type Global struct {
	mu      sync.RWMutex // guards pages, next, allocs, strict
	stripes [numStripes]sync.Mutex
	pages   map[uint64]*[pageSize]byte
	next    uint64
	allocs  []allocation // sorted by base
	strict  bool
}

type allocation struct {
	base uint64
	size uint64
	name string
}

// NewGlobal returns an empty device memory with strict bounds checking.
func NewGlobal() *Global {
	return &Global{pages: make(map[uint64]*[pageSize]byte), next: GlobalBase, strict: true}
}

// Reset returns the memory to its state after NewGlobal — no allocations,
// every byte zero, strict bounds — keeping the pages under the heap it had
// allocated, zeroed, for the next run to write into. Pages outside it (a
// lenient-mode stray write can map one anywhere in the 4 GiB window) are
// dropped, so a reused memory retains no more than its last heap.
func (g *Global) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for pn, p := range g.pages {
		if pn<<pageShift < g.next {
			clear(p[:])
		} else {
			delete(g.pages, pn)
		}
	}
	g.next, g.allocs, g.strict = GlobalBase, g.allocs[:0], true
}

// SetStrictBounds selects the access-checking model. Strict mode faults on
// any access outside an exact allocation — best for catching workload bugs.
// Lenient mode only faults outside the allocated heap range, modeling real
// GPUs where the allocator maps allocations contiguously and a corrupted
// pointer usually lands in *some* mapped page (so fault-injection campaigns
// see silent corruption rather than a fault, as on hardware).
func (g *Global) SetStrictBounds(strict bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.strict = strict
}

// Alloc reserves size bytes of device memory and returns its base address.
// Allocations are 256-byte aligned, like cudaMalloc.
func (g *Global) Alloc(size uint64, name string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if size == 0 {
		size = 1
	}
	base := (g.next + 255) &^ 255
	g.next = base + size
	g.allocs = append(g.allocs, allocation{base: base, size: size, name: name})
	return base
}

// lockRange acquires the data stripes covering [addr, addr+n) in ascending
// stripe order (the deadlock-freedom invariant every locker follows) and
// returns the held set, a plain value: handler atomics and warp accesses
// take it on every operation, so it must not allocate.
func (g *Global) lockRange(addr, n uint64) stripeLock {
	if n == 0 {
		n = 1
	}
	l := stripeLock{g: g, first: addr >> pageShift, last: (addr + n - 1) >> pageShift}
	l.each((*sync.Mutex).Lock)
	return l
}

// stripeLock is the set of data stripes covering pages [first, last].
type stripeLock struct {
	g           *Global
	first, last uint64
}

func (l stripeLock) unlock() { l.each((*sync.Mutex).Unlock) }

// each applies op to the covering stripes in ascending stripe order.
func (l stripeLock) each(op func(*sync.Mutex)) {
	switch {
	case l.first == l.last:
		op(&l.g.stripes[l.first%numStripes])
	case l.last-l.first+1 >= numStripes:
		for i := range l.g.stripes {
			op(&l.g.stripes[i])
		}
	default:
		var held [numStripes]bool
		for pn := l.first; pn <= l.last; pn++ {
			held[pn%numStripes] = true
		}
		for i := range held {
			if held[i] {
				op(&l.g.stripes[i])
			}
		}
	}
}

// findAlloc validates [addr, addr+n) against the checking model.
// Callers hold g.mu (read or write).
func (g *Global) findAlloc(addr, n uint64) error {
	if !g.strict {
		// Model a multi-GiB mapped heap (Tesla-class boards): anything in
		// the 4 GiB window above the heap base is considered mapped, so
		// low-half pointer corruption reads/writes stray data instead of
		// faulting; only high-half corruption leaves the window.
		if addr >= GlobalBase && addr+n <= GlobalBase+(4<<30) {
			return nil
		}
		return &Fault{Space: SpaceGlobal, Addr: addr, Why: "address outside the device heap"}
	}
	i := sort.Search(len(g.allocs), func(i int) bool {
		return g.allocs[i].base+g.allocs[i].size > addr
	})
	if i < len(g.allocs) && g.allocs[i].base <= addr && addr+n <= g.allocs[i].base+g.allocs[i].size {
		return nil
	}
	return &Fault{Space: SpaceGlobal, Addr: addr, Why: "address outside any allocation"}
}

// checkAlloc is findAlloc under the metadata read lock.
func (g *Global) checkAlloc(addr, n uint64) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.findAlloc(addr, n)
}

// pageRO returns the page backing addr, or nil if it was never written.
func (g *Global) pageRO(pn uint64) *[pageSize]byte {
	g.mu.RLock()
	p := g.pages[pn]
	g.mu.RUnlock()
	return p
}

// pageRW returns the page backing addr, creating it if needed. The caller
// holds the stripe covering pn, so no other goroutine can race on this
// page's contents; only the map insert itself needs the write lock.
func (g *Global) pageRW(pn uint64) *[pageSize]byte {
	g.mu.RLock()
	p := g.pages[pn]
	g.mu.RUnlock()
	if p != nil {
		return p
	}
	g.mu.Lock()
	p = g.pages[pn]
	if p == nil {
		p = new([pageSize]byte)
		g.pages[pn] = p
	}
	g.mu.Unlock()
	return p
}

// readData copies out of the page store. Callers hold the covering stripes.
func (g *Global) readData(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (pageSize - 1)
		var n int
		// Reads of never-written pages return zeros without materializing
		// the page (keeps lenient-mode stray reads cheap).
		if p := g.pageRO(addr >> pageShift); p != nil {
			n = copy(buf, p[off:])
		} else {
			n = len(buf)
			if rem := pageSize - int(off); rem < n {
				n = rem
			}
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// writeData copies into the page store. Callers hold the covering stripes.
func (g *Global) writeData(addr uint64, data []byte) {
	for len(data) > 0 {
		p := g.pageRW(addr >> pageShift)
		off := addr & (pageSize - 1)
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// Read copies device memory into buf, faulting on unmapped addresses.
func (g *Global) Read(addr uint64, buf []byte) error {
	if err := g.checkAlloc(addr, uint64(len(buf))); err != nil {
		f := err.(*Fault)
		f.Write = false
		return f
	}
	defer g.lockRange(addr, uint64(len(buf))).unlock()
	g.readData(addr, buf)
	return nil
}

// Write copies buf into device memory, faulting on unmapped addresses.
func (g *Global) Write(addr uint64, data []byte) error {
	if err := g.checkAlloc(addr, uint64(len(data))); err != nil {
		f := err.(*Fault)
		f.Write = true
		return f
	}
	defer g.lockRange(addr, uint64(len(data))).unlock()
	g.writeData(addr, data)
	return nil
}

// Read32 loads a 32-bit word.
func (g *Global) Read32(addr uint64) (uint32, error) {
	var b [4]byte
	if err := g.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// Write32 stores a 32-bit word.
func (g *Global) Write32(addr uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return g.Write(addr, b[:])
}

// Read64 loads a 64-bit word.
func (g *Global) Read64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := g.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Write64 stores a 64-bit word.
func (g *Global) Write64(addr uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return g.Write(addr, b[:])
}

// Atomic32 applies f to the 32-bit word at addr atomically (the covering
// stripe lock spans the whole read-modify-write) and returns the old value.
func (g *Global) Atomic32(addr uint64, f func(old uint32) uint32) (uint32, error) {
	if err := g.checkAlloc(addr, 4); err != nil {
		fl := err.(*Fault)
		fl.Write = true
		return 0, fl
	}
	defer g.lockRange(addr, 4).unlock()
	var b [4]byte
	g.readData(addr, b[:])
	old := binary.LittleEndian.Uint32(b[:])
	binary.LittleEndian.PutUint32(b[:], f(old))
	g.writeData(addr, b[:])
	return old, nil
}

// Atomic64 applies f to the 64-bit word at addr atomically and returns the
// old value.
func (g *Global) Atomic64(addr uint64, f func(old uint64) uint64) (uint64, error) {
	if err := g.checkAlloc(addr, 8); err != nil {
		fl := err.(*Fault)
		fl.Write = true
		return 0, fl
	}
	defer g.lockRange(addr, 8).unlock()
	var b [8]byte
	g.readData(addr, b[:])
	old := binary.LittleEndian.Uint64(b[:])
	binary.LittleEndian.PutUint64(b[:], f(old))
	g.writeData(addr, b[:])
	return old, nil
}

// Footprint returns the total bytes currently allocated.
func (g *Global) Footprint() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var n uint64
	for _, a := range g.allocs {
		n += a.size
	}
	return n
}

// Describe returns a human-readable allocation map (debugging aid).
func (g *Global) Describe() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := ""
	for _, a := range g.allocs {
		s += fmt.Sprintf("[0x%x,0x%x) %s (%d bytes)\n", a.base, a.base+a.size, a.name, a.size)
	}
	return s
}
