package faults_test

import (
	"strings"
	"testing"

	"sassi/internal/faults"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// TestCampaignVecAdd runs a small injection campaign and sanity-checks the
// outcome distribution: every run classified, and the masked fraction is
// the plurality (the paper's headline shape: ~79% masked).
func TestCampaignVecAdd(t *testing.T) {
	spec, ok := workloads.Get("demo.vecadd")
	if !ok {
		t.Fatal("vecadd not registered")
	}
	c := &faults.Campaign{
		Spec: spec, Dataset: "small",
		Injections: 30, Seed: 7, Config: sim.MiniGPU(),
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.Total != 30 {
		t.Fatalf("total = %d, want 30", res.Total)
	}
	sum := 0
	for o := 0; o < faults.NumOutcomes; o++ {
		sum += res.Counts[o]
	}
	if sum != res.Total {
		t.Fatalf("outcome counts sum %d != total %d", sum, res.Total)
	}
	if res.SitesTotal == 0 {
		t.Fatal("no injectable sites profiled")
	}
	t.Logf("sites=%d outcomes: masked=%d crash=%d hang=%d symptom=%d stdout=%d output=%d",
		res.SitesTotal,
		res.Counts[faults.Masked], res.Counts[faults.Crash], res.Counts[faults.Hang],
		res.Counts[faults.FailureSymptom], res.Counts[faults.StdoutOnlyDiff],
		res.Counts[faults.OutputDiff])
	if res.Counts[faults.Masked] == 0 {
		t.Error("expected at least some masked injections")
	}
	nonMasked := res.Total - res.Counts[faults.Masked]
	if nonMasked == 0 {
		t.Error("expected at least some visible corruption across 30 injections")
	}
}

// TestCampaignWorkerInvariance is the campaign-level determinism contract:
// the same campaign run with 1, 4, and 8 workers must produce identical
// outcome counts — per-run RNGs derive from (seed, run index), so site
// selection never depends on scheduling.
func TestCampaignWorkerInvariance(t *testing.T) {
	spec, ok := workloads.Get("demo.vecadd")
	if !ok {
		t.Fatal("vecadd not registered")
	}
	var want *faults.Result
	for _, workers := range []int{1, 4, 8} {
		c := &faults.Campaign{
			Spec: spec, Dataset: "small",
			Injections: 16, Seed: 99, Config: sim.MiniGPU(),
			Workers: workers,
		}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = res
			t.Logf("outcomes: %v (sites=%d)", res.Counts, res.SitesTotal)
			continue
		}
		if res.Counts != want.Counts || res.SitesTotal != want.SitesTotal {
			t.Errorf("workers=%d: counts %v (sites %d) != workers=1 counts %v (sites %d)",
				workers, res.Counts, res.SitesTotal, want.Counts, want.SitesTotal)
		}
	}
}

// TestCampaignsRefuseUnknownDataset: a workload runs its default data for
// a dataset key it does not know, so a campaign given one would report
// the default data's outcomes under the unknown name. Both campaign kinds
// refuse it before the golden run.
func TestCampaignsRefuseUnknownDataset(t *testing.T) {
	for _, name := range []string{"demo.vecadd", "demo.calltree"} {
		spec, _ := workloads.Get(name)
		_, err := (&faults.Campaign{Spec: spec, Dataset: "bogus", Injections: 2, Config: sim.MiniGPU()}).Run()
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("%s: Campaign.Run with dataset bogus = %v, want an error naming it", name, err)
		}
		_, err = (&faults.ControlCampaign{Spec: spec, Dataset: "bogus", Injections: 2, Config: sim.MiniGPU()}).Run()
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("%s: ControlCampaign.Run with dataset bogus = %v, want an error naming it", name, err)
		}
	}
}
