package faults

import "sassi/internal/sassi"

// RunOutcomes runs the campaign and returns every run's outcome, in run
// order. widen makes injection runs execute instrumented code in every warp
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

// ProfiledLaunch is one launch of a campaign's site space.
type ProfiledLaunch struct {
	Kernel string
	Counts []uint64 // qualifying dynamic instructions per grid-flat thread
}

// Profile performs the campaign's golden run as run does and returns the
// site space it counted, launch by launch, and the largest warp
// instruction count the instrumented program reaches in any launch.
func (c *Campaign) Profile() ([]ProfiledLaunch, uint64, error) {
	g, err := c.golden(sassi.NewCompileCache())
	if err != nil {
		return nil, 0, err
	}
	out := make([]ProfiledLaunch, len(g.profiles))
	for i, lp := range g.profiles {
		out[i] = ProfiledLaunch{Kernel: lp.kernel, Counts: lp.counts}
	}
	return out, g.maxWarpInstrs, nil
}
