package difftest

import (
	"slices"
	"testing"

	"sassi/internal/handlers"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// TestCampaignWorkerInvariantFailures runs a campaign whose every kernel
// fails — a tool clobbering a register above the save/restore window —
// at 1 and 4 workers and requires the same failures, run by run and in
// run order: which runs, their derived seeds and every divergence's text.
// A low watchdog keeps the clobbered kernels that spin short.
func TestCampaignWorkerInvariantFailures(t *testing.T) {
	cfg := sim.MiniGPU()
	cfg.WatchdogWarpInstrs = 100_000
	notes := func(workers int) []string {
		c := &Campaign{
			Seed: 1, Runs: 6, Workers: workers, Size: DefaultSize(), Cfg: cfg,
			Tools: []handlers.ToolSpec{MutantClobberTool(uint8(sassi.HandlerMaxRegs))},
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range res.Errors {
			out = append(out, "error: "+e.Error())
		}
		for _, f := range res.Failures {
			out = append(out, f.Note())
		}
		return out
	}
	one, four := notes(1), notes(4)
	if len(one) < 2 {
		t.Fatalf("%d failing runs at 1 worker, want several to order: %q", len(one), one)
	}
	if !slices.Equal(one, four) {
		t.Errorf("failures differ between 1 and 4 workers\n--- 1 worker ---\n%q\n--- 4 workers ---\n%q", one, four)
	}
}
