package sim

import "sassi/internal/mem"

// A launch's dominant allocations are per-thread: the Thread struct, its
// register file, and its local-memory descriptor. A ctaSlab carves all
// three for a whole CTA out of reusable backing arrays; when the CTA
// retires (after the CTARetire observer has run) or its launch fails, the
// slab goes back to the free list of the SM that ran it. Between reuses
// only the carved prefix is zeroed — a memclr, not an allocation — so
// steady-state launches on a device allocate no per-thread memory.
//
// The free lists belong to the device, one per SM (Device.slabs). A device
// runs one launch at a time and a launch runs each SM on one goroutine, so
// a list has a single user at any moment: no lock, and no two SM goroutines
// competing for the same slab, which would make the bytes a launch
// allocates depend on how they interleave. Nothing but the device's own
// lifetime frees a list — a sync.Pool here made allocation figures depend
// on when the collector last ran. What a list retains is Thread structs,
// register files and descriptors; stack storage is dropped at put, or every
// retired thread's materialised stack would stay reachable until the slab's
// next carve.
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

// ctaSlab backs the threads of one CTA. The backing arrays are carved by
// appending within capacity; capacity is reserved up front for the whole
// CTA so carving never reallocates (earlier *Thread pointers must stay
// valid).
type ctaSlab struct {
	threads []Thread
	regs    []uint32
	locals  []mem.Local
}

// get returns a slab with capacity for nThreads threads of numRegs
// registers each, reusing a free slab when one is large enough.
func (l *slabList) get(nThreads, numRegs int) *ctaSlab {
	l.live++
	for i := len(l.free) - 1; i >= 0; i-- {
		s := l.free[i]
		if cap(s.threads) >= nThreads && cap(s.regs) >= nThreads*numRegs {
			l.free[i] = l.free[len(l.free)-1]
			l.free = l.free[:len(l.free)-1]
			return s
		}
	}
	return &ctaSlab{
		threads: make([]Thread, 0, nThreads),
		regs:    make([]uint32, 0, nThreads*numRegs),
		locals:  make([]mem.Local, 0, nThreads),
	}
}

// put takes back the slab of a CTA that retired or whose launch failed.
// Thread structs and registers are zeroed at the next carve, not here; the
// descriptors are cleared now because they hold the stacks.
func (l *slabList) put(s *ctaSlab) {
	clear(s.locals)
	s.threads = s.threads[:0]
	s.regs = s.regs[:0]
	s.locals = s.locals[:0]
	l.free = append(l.free, s)
	l.live--
}

// newThread carves one thread from the slab. Its stack pointer starts at
// the top of local memory (the stack grows down), and the local-memory
// descriptor materialises storage only for what gets written.
func (s *ctaSlab) newThread(numRegs, localBytes int) *Thread {
	s.threads = append(s.threads, Thread{})
	t := &s.threads[len(s.threads)-1]
	n := len(s.regs)
	s.regs = s.regs[:n+numRegs]
	regs := s.regs[n : n+numRegs : n+numRegs]
	clear(regs)
	s.locals = append(s.locals, mem.Local{})
	l := &s.locals[len(s.locals)-1]
	l.Reset(localBytes)
	t.Regs = regs
	t.Preds = 1 << 7 // PT
	t.Local = l
	t.Regs[1] = uint32(localBytes)
	return t
}
