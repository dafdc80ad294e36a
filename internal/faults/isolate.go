package faults

import (
	"math"
	"math/bits"
	"slices"

	"sassi/internal/mem"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// launchCut is what the golden run keeps of one launch so that an injection
// run can simulate one CTA of it alone (DESIGN.md "Per-warp kernel
// selection"): every global line a CTA touched and which CTAs touched it,
// the CTAs that may run alone, the golden post-launch bytes of every
// stored line, and the golden deltas of every reduction line, which stand
// in for the CTAs that do not run.
type launchCut struct {
	lineBytes uint64
	lines     []uint64  // ascending: every line some CTA loaded, stored or reduced
	use       []lineUse // per line
	alone     []bool    // per CTA: isolated
	stored    []int     // ascending indices into lines of the stored ones
	image     []byte    // lineBytes per stored line, in stored's order
	// reduced lists the reduction lines, ascending; sums holds, per word
	// of each in turn, what every CTA's reductions added to it; deltas is
	// each CTA's own share, ascending by address (sim.Footprint.Deltas
	// without the words of other lines).
	reduced []uint64
	sums    []uint32
	deltas  [][]sim.Delta
	// slots finds a line's index in lines in constant expected time: an
	// open-addressing table of 1 + the index (0: empty), probed linearly
	// from the top slotBits bits of the line's address times a Fibonacci
	// constant. It has a power of two of at least twice as many slots as
	// lines, so it grows with the lines the launch touched, not with the
	// span of their addresses.
	slots    []int32
	slotBits uint8
}

// lineUse is the one CTA that loaded (stored) a line, noCTA when none did,
// or manyCTAs when more than one did, and whether it is a reduction line:
// one that CTAs only reduced. On any other line a reduction counts as a
// load and a store.
type lineUse struct {
	loader, storer int32
	reduced        bool
}

const (
	noCTA    = -1
	manyCTAs = -2
)

// note records that CTA c used a line as *who says.
func note(who *int32, c int) {
	switch *who {
	case noCTA:
		*who = int32(c)
	case int32(c):
	default:
		*who = manyCTAs
	}
}

// newLaunchCut builds a launch's cut from its golden footprint. CTA c of
// the launch is isolated when it issued no global atomic but reductions,
// every line it stored (or reduced, outside the reduction lines) was
// loaded or stored by no other CTA, and every line it loaded was stored by
// no other CTA; smDependent (the kernel reads SR_SMID or SR_CLOCK, whose
// values depend on what shares c's SM) isolates none, and then nothing
// else is kept. The cut takes over f.Deltas; the image is left for the
// caller to read.
func newLaunchCut(f *sim.Footprint, smDependent bool) *launchCut {
	lc := &launchCut{lineBytes: f.LineBytes, alone: make([]bool, len(f.Loads))}
	if smDependent || !slices.Contains(f.Atomic, false) {
		return lc // no CTA can run alone: nothing else is needed
	}
	// One key per line a CTA loaded, stored or reduced — the line's number
	// counted from the lowest line, the CTA, then the sim.Access in two
	// bits — sorted once, so that each line's users are adjacent.
	lists := func(c int) [3][]uint64 { return [3][]uint64{f.Loads[c], f.Stores[c], f.Reduces[c]} }
	lo, n := uint64(math.MaxUint64), 0
	for c := range f.Loads {
		for _, set := range lists(c) {
			if len(set) > 0 {
				lo = min(lo, set[0])
			}
			n += len(set)
		}
	}
	shift := 2 + bits.Len(uint(len(f.Loads)))
	keys := make([]uint64, 0, n)
	for c := range f.Loads {
		for kind, set := range lists(c) {
			for _, l := range set {
				keys = append(keys, (l-lo)/lc.lineBytes<<shift|uint64(c)<<2|uint64(kind))
			}
		}
	}
	slices.Sort(keys)
	cta := func(k uint64) int { return int(k >> 2 & (1<<(shift-2) - 1)) }
	access := func(k uint64) sim.Access { return sim.Access(k & 3) }
	for c := range lc.alone {
		lc.alone[c] = !f.Atomic[c]
	}
	lines := 0
	for i, k := range keys {
		if i == 0 || k>>shift != keys[i-1]>>shift {
			lines++
		}
	}
	lc.lines, lc.use = make([]uint64, 0, lines), make([]lineUse, 0, lines)
	for i := 0; i < len(keys); {
		line := keys[i] >> shift
		u, j, reduces := lineUse{loader: noCTA, storer: noCTA}, i, false
		for ; j < len(keys) && keys[j]>>shift == line; j++ {
			switch access(keys[j]) {
			case sim.AccessLoad:
				note(&u.loader, cta(keys[j]))
			case sim.AccessStore:
				note(&u.storer, cta(keys[j]))
			default:
				reduces = true
			}
		}
		u.reduced = reduces && u.loader == noCTA && u.storer == noCTA
		if reduces && !u.reduced {
			for _, k := range keys[i:j] {
				if access(k) == sim.AccessReduce {
					note(&u.loader, cta(k))
					note(&u.storer, cta(k))
				}
			}
		}
		for _, k := range keys[i:j] {
			if !u.permits(cta(k), access(k)) {
				lc.alone[cta(k)] = false
			}
		}
		if u.storer != noCTA {
			lc.stored = append(lc.stored, len(lc.lines))
		}
		if u.reduced {
			lc.reduced = append(lc.reduced, lo+line*lc.lineBytes)
		}
		lc.lines = append(lc.lines, lo+line*lc.lineBytes)
		lc.use = append(lc.use, u)
		i = j
	}
	lc.sumDeltas(f)
	lc.index()
	return lc
}

// fibonacci is 2⁶⁴ over the golden ratio, odd: multiplying by it spreads
// line addresses, whose low bits are zero, over the top bits.
const fibonacci = 0x9e3779b97f4a7c15

// index builds slots over lines.
func (lc *launchCut) index() {
	if len(lc.lines) == 0 {
		return
	}
	lc.slotBits = uint8(bits.Len(uint(2*len(lc.lines) - 1)))
	lc.slots = make([]int32, 1<<lc.slotBits)
	mask := uint64(len(lc.slots) - 1)
	for i, l := range lc.lines {
		h := l * fibonacci >> (64 - lc.slotBits)
		for lc.slots[h] != 0 {
			h = (h + 1) & mask
		}
		lc.slots[h] = int32(i + 1)
	}
}

// find returns line l's index in lines, if the cut holds it.
func (lc *launchCut) find(l uint64) (int, bool) {
	if len(lc.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(lc.slots) - 1)
	for h := l * fibonacci >> (64 - lc.slotBits); ; h = (h + 1) & mask {
		switch s := lc.slots[h]; {
		case s == 0:
			return 0, false
		case lc.lines[s-1] == l:
			return int(s - 1), true
		}
	}
}

// sumDeltas adds up f's deltas to the words of the reduction lines, and
// keeps each CTA's own, taking over f.Deltas.
func (lc *launchCut) sumDeltas(f *sim.Footprint) {
	if len(lc.reduced) == 0 {
		return
	}
	words := lc.lineBytes / 4
	lc.sums = make([]uint32, uint64(len(lc.reduced))*words)
	lc.deltas = f.Deltas
	for c, ds := range f.Deltas {
		own := ds[:0]
		for _, d := range ds {
			if i, ok := slices.BinarySearch(lc.reduced, d.Addr-d.Addr%lc.lineBytes); ok {
				lc.sums[uint64(i)*words+d.Addr%lc.lineBytes/4] += d.Sum
				own = append(own, d)
			}
		}
		lc.deltas[c] = own
	}
}

// permits reports whether CTA c may make an access of kind to a line so
// used without meeting another CTA: on a reduction line, a reduction and
// nothing else; on any other line, a load no other CTA stored, or a store
// (or a reduction) no other CTA loaded or stored.
func (u lineUse) permits(c int, kind sim.Access) bool {
	if u.reduced {
		return kind == sim.AccessReduce
	}
	mine := func(who int32) bool { return who == noCTA || who == int32(c) }
	return mine(u.storer) && (kind == sim.AccessLoad || mine(u.loader))
}

// permits reports whether CTA c may make an access of kind to lines
// without meeting another CTA; a line no CTA touched meets none.
func (lc *launchCut) permits(c int, lines []uint64, kind sim.Access) bool {
	for _, l := range lines {
		if i, ok := lc.find(l); ok && !lc.use[i].permits(c, kind) {
			return false
		}
	}
	return true
}

// readImage keeps the golden post-launch bytes of every stored line. A line
// may reach past the end of its allocation, so it is read with the heap
// bounds relaxed.
func (lc *launchCut) readImage(g *mem.Global) error {
	g.SetStrictBounds(false)
	defer g.SetStrictBounds(true)
	lc.image = make([]byte, len(lc.stored)*int(lc.lineBytes))
	return lc.eachRun(func(int) bool { return false }, func(addr uint64, image []byte) error {
		return g.Read(addr, image)
	})
}

// eachRun calls fn with the address and image bytes of every run of
// adjacent stored lines, leaving out the lines skip picks (by index into
// lc.stored), and stops at fn's first error.
func (lc *launchCut) eachRun(skip func(i int) bool, fn func(addr uint64, image []byte) error) error {
	lb := int(lc.lineBytes)
	for i := 0; i < len(lc.stored); {
		if skip(i) {
			i++
			continue
		}
		j := i + 1
		for j < len(lc.stored) && !skip(j) && lc.lines[lc.stored[j]] == lc.lines[lc.stored[j-1]]+lc.lineBytes {
			j++
		}
		if err := fn(lc.lines[lc.stored[i]], lc.image[i*lb:j*lb]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// twinFor is twinFor of an injection run whose fault lands in warp warp of
// CTA cta of launch number launch, an isolated CTA of lc's launch, with
// that launch cut down to CTA cta alone and fenced off from every line
// another CTA of the whole grid uses.
func (lc *launchCut) twinFor(inst *sass.Program, launch, cta, warp int) func(string, int) *sim.Twin {
	only := twinFor(inst, launch, cta, warp, false)
	return func(kernel string, idx int) *sim.Twin {
		t := only(kernel, idx)
		if t != nil {
			t.CTAs = func(c int) bool { return c == cta }
			t.Fence = func(lines []uint64, kind sim.Access) bool { return lc.permits(cta, lines, kind) }
		}
		return t
	}
}

// splice writes the golden post-launch bytes of every line another CTA
// than cta stored, after a launch that ran CTA cta alone, and adds to every
// word of the reduction lines what the other CTAs' reductions added to it
// in the golden run — the sum over every CTA less cta's own — so that
// memory holds what the whole grid would have left: cta's own lines keep
// what cta wrote over their pre-launch bytes, and the reduction words
// what cta added to them. Integer addition commutes and no reduced value is
// read inside the launch, so the order of the additions cannot show.
func (lc *launchCut) splice(g *mem.Global, cta int) error {
	mine := func(i int) bool { return lc.use[lc.stored[i]].storer == int32(cta) }
	if err := lc.eachRun(mine, g.Write); err != nil {
		return err
	}
	if len(lc.reduced) == 0 {
		return nil
	}
	own := lc.deltas[cta] // ascending, like the words of sums
	b := mem.AtomicBatch{Op: mem.AtomAdd, Width: 4}
	flush := func() error {
		_, err := g.AtomicWarp(&b)
		b.N = 0
		return err
	}
	words := lc.lineBytes / 4
	for i, line := range lc.reduced {
		for w, sum := range lc.sums[uint64(i)*words:][:words] {
			addr := line + 4*uint64(w)
			if len(own) > 0 && own[0].Addr == addr {
				sum -= own[0].Sum
				own = own[1:]
			}
			if sum == 0 {
				continue
			}
			b.Addrs[b.N], b.Vals[b.N] = addr, uint64(sum)
			if b.N++; b.N == len(b.Addrs) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if b.N == 0 {
		return nil
	}
	return flush()
}

// smDependent reports whether k reads SR_SMID or SR_CLOCK.
func smDependent(k *sass.Kernel) bool {
	for i := range k.Instrs {
		for _, s := range k.Instrs[i].Srcs {
			if s.Kind == sass.OpdSReg && (s.SR == sass.SRSMID || s.SR == sass.SRClock) {
				return true
			}
		}
	}
	return false
}
