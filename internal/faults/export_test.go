package faults

import (
	"sassi/internal/cuda"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// RunOutcomes runs the campaign and returns every run's outcome, in run
// order. widen makes injection runs execute instrumented code in every CTA
// of every launch instead of only where the fault lands.
func (c *Campaign) RunOutcomes(widen bool) ([]Outcome, error) {
	_, outcomes, err := c.run(widen)
	return outcomes, err
}

// RunOutcomes is Campaign.RunOutcomes for a control campaign.
func (c *ControlCampaign) RunOutcomes(widen bool) ([]CtrlOutcome, error) {
	_, outcomes, err := c.run(widen)
	return outcomes, err
}

// ProfiledLaunch is one launch of a campaign's profiling run.
type ProfiledLaunch struct {
	Kernel string
	Counts []uint64 // qualifying dynamic instructions per grid-flat thread
}

// Profile performs the campaign's golden and profiling runs as run does —
// counters sized by the golden run's largest launch, re-profiled while a
// launch outgrows them — and returns the profiling run's launches and the
// largest warp instruction count of any of them.
func (c *Campaign) Profile() ([]ProfiledLaunch, uint64, error) {
	cache := sassi.NewCompileCache()
	goldenProg, err := c.Spec.CompileCached(cache, ptxas.Options{})
	if err != nil {
		return nil, 0, err
	}
	ctx := cuda.NewContext(c.Config)
	maxThreads := 0
	ctx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(_ string, _ int, stats *sim.KernelStats, _ error) {
			if stats != nil && stats.Threads > maxThreads {
				maxThreads = stats.Threads
			}
		},
	})
	if _, err := c.Spec.Run(ctx, goldenProg, c.Dataset); err != nil {
		return nil, 0, err
	}
	inst, err := c.instrumentedProg(cache)
	if err != nil {
		return nil, 0, err
	}
	for attempt := 1; ; attempt++ {
		profiles, maxWarpInstrs, largest, err := c.profile(inst, maxThreads)
		if err != nil {
			return nil, 0, err
		}
		if largest != nil && attempt < profileAttempts {
			maxThreads = largest.Threads
			continue
		}
		if largest != nil {
			return nil, 0, largest
		}
		out := make([]ProfiledLaunch, len(profiles))
		for i, lp := range profiles {
			out[i] = ProfiledLaunch{Kernel: lp.kernel, Counts: lp.counts}
		}
		return out, maxWarpInstrs, nil
	}
}
