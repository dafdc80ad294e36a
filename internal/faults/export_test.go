package faults

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
