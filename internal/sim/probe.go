package sim

import (
	"cmp"
	"fmt"
	"slices"

	"sassi/internal/mem"
	"sassi/internal/sass"
)

// SiteProbe counts a launch's instrumentation site space natively: how
// often each thread executes an instruction that an instrumentation pass
// would call a handler after, and how many instructions the busiest warp
// would have issued with that pass's injected code in place. The fault
// campaigns take their site space from the golden run this way instead of
// running the instrumented program over the whole grid a second time.
// The probe also records where each CTA of the launch reads and writes
// global memory, which tells a campaign when one CTA can run alone.
type SiteProbe interface {
	// SiteWeights returns one weight per instruction of k: 0 where the
	// instruction is not a site, otherwise the number of instructions the
	// instrumentation runs after it. A launch for whose kernel it returns
	// another number of weights fails before it runs.
	SiteWeights(k *sass.Kernel) []uint32
	// LaunchSites receives a launch's per-grid-thread site counts — every
	// issue of a site adds 1 for each lane whose guard passed — and the
	// largest number of instructions any warp would have issued with the
	// injected code: its DynWarpInstrs plus the weights of the sites it
	// issued. It is called once per launch, after every SM has finished.
	LaunchSites(counts []uint64, maxWarpInstrs uint64)
	// LaunchFootprint receives the launch's Footprint, once per launch,
	// after LaunchSites.
	LaunchFootprint(f *Footprint)
}

// Footprint is a launch's use of global memory per CTA, in lines of
// Config.CoalesceBytes: the lines each CTA's warps loaded, stored and
// reduced, as ascending line base addresses without repeats, and whether
// the CTA issued a global atomic other than a reduction, whose lines count
// as loaded and stored. A reduction (AccessReduce: an ATOM or RED that adds
// to aligned 4-byte words and writes no register) goes into Reduces and
// Deltas alone. It covers the core's loads, stores and atomics; a
// handler's own device memory accesses are not in it.
type Footprint struct {
	LineBytes              uint64
	Loads, Stores, Reduces [][]uint64 // per CTA
	Atomic                 []bool     // per CTA
	// Deltas is, per CTA, what its reductions added to each 32-bit word,
	// ascending by address, one entry per word.
	Deltas [][]Delta
}

// Delta is the sum, mod 2³², of what a CTA's reductions added to the word
// at Addr.
type Delta struct {
	Addr uint64
	Sum  uint32
}

// siteCount is a launch's SiteProbe state. Every slice is indexed by grid
// thread, CTA, launch-global warp or SM, each written only by the goroutine
// of the SM running it, so nothing is locked.
type siteCount struct {
	weights     []uint32
	counts      []uint64 // per grid thread
	added       []uint64 // per launch-global warp: the weights it issued
	smMax       []uint64 // per SM: the largest retired DynWarpInstrs+added
	warpsPerCTA int
	fp          Footprint
	seen        []lineFilter // per CTA: its loads', stores' and reductions'
	sorted      []int        // likewise, then per CTA its deltas': how much of each list is compact
}

// lineFilter holds the last line seen in each of 32 slots, picked by line
// number: a footprint list takes a line only when its slot holds another,
// so the lines a CTA keeps coming back to (a histogram's bins, a tile it
// rereads) are appended about once.
type lineFilter [32]uint64

// attachProbe sets up the launch's site counting for k.
func (e *engine) attachProbe(k *sass.Kernel, numCTAs, threadsPerCTA int) error {
	w := e.dev.Probe.SiteWeights(k)
	if len(w) != len(k.Instrs) {
		return fmt.Errorf("sim: kernel %s: site probe gave %d weights for %d instructions", k.Name, len(w), len(k.Instrs))
	}
	wpc := (threadsPerCTA + WarpSize - 1) / WarpSize
	e.probe = &siteCount{
		weights:     w,
		counts:      make([]uint64, numCTAs*threadsPerCTA),
		added:       make([]uint64, numCTAs*wpc),
		smMax:       make([]uint64, e.dev.Cfg.NumSMs),
		warpsPerCTA: wpc,
		fp: Footprint{
			LineBytes: e.dev.Cfg.CoalesceBytes,
			Loads:     make([][]uint64, numCTAs),
			Stores:    make([][]uint64, numCTAs),
			Reduces:   make([][]uint64, numCTAs),
			Atomic:    make([]bool, numCTAs),
			Deltas:    make([][]Delta, numCTAs),
		},
		seen:   make([]lineFilter, 3*numCTAs),
		sorted: make([]int, 4*numCTAs),
	}
	return nil
}

// issue counts warp w's issue of the instruction at pc for the lanes of
// exec.
func (s *siteCount) issue(w *Warp, pc int, exec uint32) {
	wt := s.weights[pc]
	if wt == 0 {
		return
	}
	base := w.threads[0].GlobalFlat
	for m := exec; m != 0; m &= m - 1 {
		s.counts[base+uint64(lane(m))]++
	}
	s.added[w.CTA.Index*s.warpsPerCTA+w.IDinCTA] += uint64(wt)
}

// touch adds the lines of one warp access of CTA cta, of kind load, store
// or reduce, to its footprint. A CTA that reads the same lines over and
// over is compacted whenever its list has doubled since the last time.
func (s *siteCount) touch(cta int, lines []uint64, kind Access) {
	set, i := &s.fp.Loads[cta], 3*cta+int(kind)
	switch kind {
	case AccessStore:
		set = &s.fp.Stores[cta]
	case AccessReduce:
		set = &s.fp.Reduces[cta]
	}
	seen := &s.seen[i]
	for _, l := range lines {
		if slot := &seen[l/s.fp.LineBytes%uint64(len(seen))]; *slot != l {
			*slot = l
			*set = append(*set, l)
		}
	}
	if len(*set) > 2*s.sorted[i]+64 {
		s.sorted[i] = compactLines(set)
	}
}

// atomic adds the lines of one warp global atomic of CTA cta, not a
// reduction, to both its lists and marks the CTA.
func (s *siteCount) atomic(cta int, lines []uint64) {
	s.touch(cta, lines, AccessLoad)
	s.touch(cta, lines, AccessStore)
	s.fp.Atomic[cta] = true
}

// reduce adds one warp reduction of CTA cta to its footprint: its lines,
// and the operands b stages, before the batch is applied, to the CTA's
// per-word deltas.
func (s *siteCount) reduce(cta int, lines []uint64, b *mem.AtomicBatch) {
	s.touch(cta, lines, AccessReduce)
	set, i := &s.fp.Deltas[cta], 3*len(s.fp.Loads)+cta
	for j := range b.N {
		*set = append(*set, Delta{Addr: b.Addrs[j], Sum: uint32(b.Vals[j])})
	}
	if len(*set) > 2*s.sorted[i]+64 {
		s.sorted[i] = compactDeltas(set)
	}
}

// compactLines sorts a line list and drops its repeats.
func compactLines(set *[]uint64) int {
	slices.Sort(*set)
	*set = slices.Compact(*set)
	return len(*set)
}

// compactDeltas sorts a delta list by address and sums each word's entries
// into one.
func compactDeltas(set *[]Delta) int {
	slices.SortFunc(*set, func(a, b Delta) int { return cmp.Compare(a.Addr, b.Addr) })
	out := (*set)[:0]
	for _, d := range *set {
		if n := len(out); n > 0 && out[n-1].Addr == d.Addr {
			out[n-1].Sum += d.Sum
		} else {
			out = append(out, d)
		}
	}
	*set = out
	return len(out)
}

// retire folds a retiring CTA's warps into its SM's maximum.
func (s *siteCount) retire(cta *CTA) {
	for _, w := range cta.Warps {
		n := w.DynWarpInstrs + s.added[cta.Index*s.warpsPerCTA+w.IDinCTA]
		s.smMax[cta.SM] = max(s.smMax[cta.SM], n)
	}
}

// report hands the launch's counts and footprint to the probe.
func (s *siteCount) report(p SiteProbe) {
	var most uint64
	for _, n := range s.smMax {
		most = max(most, n)
	}
	p.LaunchSites(s.counts, most)
	for c := range s.fp.Loads {
		compactLines(&s.fp.Loads[c])
		compactLines(&s.fp.Stores[c])
		compactLines(&s.fp.Reduces[c])
		compactDeltas(&s.fp.Deltas[c])
	}
	p.LaunchFootprint(&s.fp)
}
