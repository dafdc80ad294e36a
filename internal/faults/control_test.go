package faults_test

import (
	"strings"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/faults"
	"sassi/internal/handlers"
	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// TestControlCampaignCallTree runs a control-state corruption campaign on
// the call-tree demo and pins the CFI contract: zero false positives on
// the uncorrupted profiling run, every run classified, and the
// return-address class detected at >= 95%.
func TestControlCampaignCallTree(t *testing.T) {
	spec, ok := workloads.Get("demo.calltree")
	if !ok {
		t.Fatal("demo.calltree not registered")
	}
	c := &faults.ControlCampaign{
		Spec: spec, Dataset: "small",
		Injections: 40, Seed: 11, Config: sim.MiniGPU(),
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.FalsePositives != 0 {
		t.Errorf("false positives on the uncorrupted run: %d", res.FalsePositives)
	}
	sum, runs := 0, 0
	for cl := 0; cl < int(handlers.NumCtrlClasses); cl++ {
		class := handlers.CtrlClass(cl)
		for o := 0; o < faults.NumCtrlOutcomes; o++ {
			sum += res.Counts[cl][o]
		}
		runs += res.ClassTotals[cl]
		t.Logf("%-12s sites=%-4d runs=%-3d detected=%.0f%%",
			class, res.Sites[cl], res.ClassTotals[cl], 100*res.DetectionRate(class))
	}
	if sum != 40 || runs != 40 {
		t.Fatalf("outcome counts sum %d and class totals %d, want 40 runs", sum, runs)
	}
	// The call tree qualifies every class (calls, divergence, any-site).
	for cl := 0; cl < int(handlers.NumCtrlClasses); cl++ {
		if res.Sites[cl] == 0 {
			t.Errorf("class %s profiled no qualifying sites", handlers.CtrlClass(cl))
		}
	}
	if n := res.ClassTotals[handlers.CtrlRetBitFlip]; n > 0 {
		if rate := res.DetectionRate(handlers.CtrlRetBitFlip); rate < 0.95 {
			t.Errorf("ret-addr detection %.0f%% < 95%%", 100*rate)
		}
	} else {
		t.Error("no ret-addr runs drawn across 40 injections")
	}
}

// TestControlCampaignNoSites: a workload whose run launches nothing
// profiles no qualifying site in any class, and the campaign refuses it
// before drawing a site from the empty set.
func TestControlCampaignNoSites(t *testing.T) {
	spec, ok := workloads.Get("demo.calltree")
	if !ok {
		t.Fatal("demo.calltree not registered")
	}
	idle := *spec
	idle.Name = "demo.calltree-idle"
	idle.Run = func(*cuda.Context, *sass.Program, string) (*workloads.Result, error) {
		return &workloads.Result{}, nil
	}
	c := &faults.ControlCampaign{Spec: &idle, Dataset: "small", Injections: 4, Seed: 1, Config: sim.MiniGPU()}
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "has no qualifying control-state sites") {
		t.Fatalf("campaign on a workload that launches nothing: err %v", err)
	}
}

// TestControlCampaignWorkerInvariance: outcome counts must be identical at
// any worker count (per-run RNGs derive from (seed, run index)).
func TestControlCampaignWorkerInvariance(t *testing.T) {
	spec, ok := workloads.Get("demo.calltree")
	if !ok {
		t.Fatal("demo.calltree not registered")
	}
	run := func(workers int) *faults.ControlResult {
		c := &faults.ControlCampaign{
			Spec: spec, Dataset: "small",
			Injections: 12, Seed: 3, Config: sim.MiniGPU(), Workers: workers,
		}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Counts != b.Counts {
		t.Errorf("outcome counts differ across worker counts:\n 1: %v\n 4: %v", a.Counts, b.Counts)
	}
}
