package sim

import (
	"fmt"

	"sassi/internal/sass"
)

// SiteProbe counts a launch's instrumentation site space natively: how
// often each thread executes an instruction that an instrumentation pass
// would call a handler after, and how many instructions the busiest warp
// would have issued with that pass's injected code in place. The fault
// campaigns take their site space from the golden run this way instead of
// running the instrumented program over the whole grid a second time.
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
}

// siteCount is a launch's SiteProbe state. Every slice is indexed by grid
// thread, launch-global warp or SM, each written only by the goroutine of
// the SM running it, so nothing is locked.
type siteCount struct {
	weights     []uint32
	counts      []uint64 // per grid thread
	added       []uint64 // per launch-global warp: the weights it issued
	smMax       []uint64 // per SM: the largest retired DynWarpInstrs+added
	warpsPerCTA int
}

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

// retire folds a retiring CTA's warps into its SM's maximum.
func (s *siteCount) retire(cta *CTA) {
	for _, w := range cta.Warps {
		n := w.DynWarpInstrs + s.added[cta.Index*s.warpsPerCTA+w.IDinCTA]
		s.smMax[cta.SM] = max(s.smMax[cta.SM], n)
	}
}

// report hands the launch's counts to the probe.
func (s *siteCount) report(p SiteProbe) {
	var most uint64
	for _, n := range s.smMax {
		most = max(most, n)
	}
	p.LaunchSites(s.counts, most)
}
