package sim

import (
	"sassi/internal/mem"
	"sassi/internal/sass"
)

// A launch's dominant allocations are per-warp state: the Thread views,
// the register rows, the scoreboard and the stack descriptor. A ctaSlab
// carves all four for a whole CTA out of reusable backing arrays; when the
// CTA retires (after the CTARetire observer has run) or its launch fails,
// the slab goes back to the free list of the SM that ran it. Between reuses
// only the carved prefix is zeroed — a memclr, not an allocation — so
// steady-state launches on a device allocate no per-thread memory.
//
// The free lists belong to the device, one per SM (smState.slabs). A device
// runs one launch at a time and a launch runs each SM on one goroutine, so
// a list has a single user at any moment: no lock, and no two SM goroutines
// competing for the same slab, which would make the bytes a launch
// allocates depend on how they interleave. Nothing but the device's own
// lifetime frees a list — a sync.Pool here made allocation figures depend
// on when the collector last ran. What a list retains is Thread structs,
// register rows, scoreboards and descriptors; stack storage is dropped at
// put, or every retired warp's materialised stack would stay reachable
// until the slab's next carve.
//
// Warp and CTA structs are deliberately NOT pooled: instrumentation
// handlers key per-warp state by *Warp (e.g. the CFI shadow stacks, reset
// only explicitly), so recycling those pointers across launches would
// alias logically distinct warps. The slab contents are private to the
// simulator; observers that want thread state past CTA retirement must
// copy it (the difftest collector does).
type slabList struct {
	free []*ctaSlab
	live int // slabs handed out and not yet returned
}

// ctaSlab backs the warps of one CTA. The backing arrays are carved by
// extending within capacity; capacity is reserved up front for the whole
// CTA so carving never reallocates (earlier carves must stay valid).
// Register rows are 32 lanes wide in every warp, a partial trailing one
// included.
type ctaSlab struct {
	threads []Thread
	regs    []uint32
	sb      []uint64
	locals  []mem.WarpLocal

	// Row-kernel scratch for the CTA's warps, which step one at a time on
	// one SM goroutine: rows[0..2] hold materialised or constant sources,
	// rows[3] absorbs writes to RZ, and addrs holds a memory instruction's
	// lane addresses. In the slab it is allocated once, not per launch.
	rows  [4][WarpSize]uint32
	addrs [WarpSize]uint64
}

// slabShape is what a CTA carves from its slab, summed over its warps,
// each of which carves for the kernel it runs (warpCode).
type slabShape struct {
	threads, warps int
	regs           int // register words
	sbSlots        int // scoreboard slots
}

// get returns a slab that holds a CTA of shape s, reusing a free slab when
// one is large enough.
func (l *slabList) get(s slabShape) *ctaSlab {
	l.live++
	for i := len(l.free) - 1; i >= 0; i-- {
		f := l.free[i]
		if cap(f.threads) >= s.threads && cap(f.regs) >= s.regs && cap(f.sb) >= s.sbSlots && cap(f.locals) >= s.warps {
			l.free[i] = l.free[len(l.free)-1]
			l.free = l.free[:len(l.free)-1]
			return f
		}
	}
	return &ctaSlab{
		threads: make([]Thread, 0, s.threads),
		regs:    make([]uint32, 0, s.regs),
		sb:      make([]uint64, 0, s.sbSlots),
		locals:  make([]mem.WarpLocal, 0, s.warps),
	}
}

// put takes back the slab of a CTA that retired or whose launch failed.
// Threads, registers and scoreboards are zeroed at the next carve, not
// here; the descriptors are cleared now because they hold the stacks.
func (l *slabList) put(s *ctaSlab) {
	clear(s.locals)
	s.threads = s.threads[:0]
	s.regs = s.regs[:0]
	s.sb = s.sb[:0]
	s.locals = s.locals[:0]
	l.free = append(l.free, s)
	l.live--
}

// carve extends *s by n zeroed elements within its capacity and returns
// them, capacity-limited.
func carve[T any](s *[]T, n int) []T {
	k := len(*s)
	*s = (*s)[:k+n]
	c := (*s)[k : k+n : k+n]
	clear(c)
	return c
}

// carveWarp gives w its state for lanes threads, sized by the kernel it
// runs: every register zero but the stack pointer, which starts at the top
// of local memory (the stack grows down), no predicate set but PT, a clear
// CC and scoreboard, and a stack that materialises storage only for what
// gets written.
func (s *ctaSlab) carveWarp(w *Warp, lanes int) {
	c := w.code
	w.threads = carve(&s.threads, lanes)
	w.regs = carve(&s.regs, c.numRegs*WarpSize)
	w.readyAt = carve(&s.sb, c.pre.sbSlots)
	w.local = &carve(&s.locals, 1)[0]
	w.local.Reset(c.localBytes)
	sp := w.row(sass.SP)
	for l := range sp {
		sp[l] = uint32(c.localBytes)
	}
	w.preds[sass.PT] = ^uint32(0)
}
