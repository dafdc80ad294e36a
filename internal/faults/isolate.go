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
// the CTAs that may run alone, and the golden post-launch bytes of every
// stored line, which stand in for the CTAs that do not run.
type launchCut struct {
	lineBytes uint64
	lines     []uint64  // ascending: every line some CTA loaded or stored
	use       []lineUse // per line
	alone     []bool    // per CTA: isolated
	stored    []int     // ascending indices into lines of the stored ones
	image     []byte    // lineBytes per stored line, in stored's order
}

// lineUse is the one CTA that loaded (stored) a line, noCTA when none did,
// or manyCTAs when more than one did.
type lineUse struct{ loader, storer int32 }

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
// the launch is isolated when it issued no global atomic, no line it
// stored was loaded or stored by another CTA, and no line it loaded was
// stored by another CTA; smDependent (the kernel reads SR_SMID or
// SR_CLOCK, whose values depend on what shares c's SM) isolates none, and
// then nothing else is kept. The image is left for the caller to read.
func newLaunchCut(f *sim.Footprint, smDependent bool) *launchCut {
	lc := &launchCut{lineBytes: f.LineBytes, alone: make([]bool, len(f.Loads))}
	if smDependent || !slices.Contains(f.Atomic, false) {
		return lc // no CTA can run alone: nothing else is needed
	}
	// One key per line a CTA loaded or stored — the line's number counted
	// from the lowest line, the CTA, then 1 for a store — sorted once, so
	// that each line's users are adjacent.
	lo, n := uint64(math.MaxUint64), 0
	for c := range f.Loads {
		for _, set := range [2][]uint64{f.Loads[c], f.Stores[c]} {
			if len(set) > 0 {
				lo = min(lo, set[0])
			}
			n += len(set)
		}
	}
	shift := 1 + bits.Len(uint(len(f.Loads)))
	keys := make([]uint64, 0, n)
	for c := range f.Loads {
		for kind, set := range [2][]uint64{f.Loads[c], f.Stores[c]} {
			for _, l := range set {
				keys = append(keys, (l-lo)/lc.lineBytes<<shift|uint64(c)<<1|uint64(kind))
			}
		}
	}
	slices.Sort(keys)
	cta := func(k uint64) int { return int(k >> 1 & (1<<(shift-1) - 1)) }
	for c := range lc.alone {
		lc.alone[c] = !f.Atomic[c]
	}
	for i := 0; i < len(keys); {
		line := keys[i] >> shift
		u, j := lineUse{noCTA, noCTA}, i
		for ; j < len(keys) && keys[j]>>shift == line; j++ {
			if keys[j]&1 != 0 {
				note(&u.storer, cta(keys[j]))
			} else {
				note(&u.loader, cta(keys[j]))
			}
		}
		for _, k := range keys[i:j] {
			if !u.permits(cta(k), k&1 != 0) {
				lc.alone[cta(k)] = false
			}
		}
		if u.storer != noCTA {
			lc.stored = append(lc.stored, len(lc.lines))
		}
		lc.lines = append(lc.lines, lo+line*lc.lineBytes)
		lc.use = append(lc.use, u)
		i = j
	}
	return lc
}

// permits reports whether CTA c may load (or store) a line so used
// without meeting another CTA: no other CTA stored it, and, for a store,
// none loaded it either.
func (u lineUse) permits(c int, store bool) bool {
	return (u.storer == noCTA || u.storer == int32(c)) && (!store || u.loader == noCTA || u.loader == int32(c))
}

// permits reports whether CTA c may load (or store) lines without meeting
// another CTA; a line no CTA touched meets none.
func (lc *launchCut) permits(c int, lines []uint64, store bool) bool {
	for _, l := range lines {
		if i, ok := slices.BinarySearch(lc.lines, l); ok && !lc.use[i].permits(c, store) {
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
			t.Fence = func(lines []uint64, store bool) bool { return lc.permits(cta, lines, store) }
		}
		return t
	}
}

// splice writes the golden post-launch bytes of every line another CTA
// than cta stored, after a launch that ran CTA cta alone, so that memory
// holds what the whole grid would have left: cta's own lines keep what
// cta wrote over their pre-launch bytes.
func (lc *launchCut) splice(g *mem.Global, cta int) error {
	mine := func(i int) bool { return lc.use[lc.stored[i]].storer == int32(cta) }
	return lc.eachRun(mine, g.Write)
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
