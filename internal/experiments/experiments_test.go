package experiments_test

import (
	"strings"
	"testing"

	"sassi/internal/experiments"
	"sassi/internal/faults"
	"sassi/internal/obs"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

func testEnv() experiments.Env {
	return experiments.Env{Config: sim.MiniGPU()}
}

// TestTable1Shape checks the qualitative claims of the paper's Table 1:
// sgemm and streamcluster are fully convergent; tpacf and heartwall-like
// codes diverge heavily; bfs divergence is dataset-dependent.
func TestTable1Shape(t *testing.T) {
	rows, err := experiments.Table1(testEnv())
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	byName := map[string]experiments.Table1Row{}
	for _, r := range rows {
		byName[r.Bench+"/"+r.Dataset] = r
	}
	for _, conv := range []string{"sgemm/small", "sgemm/medium", "streamcluster/small"} {
		if r, ok := byName[conv]; !ok || r.DynamicD != 0 {
			t.Errorf("%s: want zero dynamic divergence, got %+v", conv, r)
		}
	}
	for _, div := range []string{"tpacf/small", "heartwall/small"} {
		r, ok := byName[div]
		if !ok || r.DynPc < 10 {
			t.Errorf("%s: want heavy divergence (>10%%), got %+v", div, r)
		}
	}
	// bfs divergence varies across datasets and is nonzero.
	var bfsPcs []float64
	for _, ds := range []string{"1M", "NY", "SF", "UT"} {
		r, ok := byName["bfs/"+ds]
		if !ok || r.DynamicD == 0 {
			t.Fatalf("bfs/%s: want nonzero divergence, got %+v", ds, r)
		}
		bfsPcs = append(bfsPcs, r.DynPc)
	}
	spread := false
	for _, pc := range bfsPcs[1:] {
		if pc != bfsPcs[0] {
			spread = true
		}
	}
	if !spread {
		t.Errorf("bfs divergence identical across datasets: %v", bfsPcs)
	}
	t.Logf("\n%s", experiments.FormatTable1(rows))
}

// TestFigure5Shape: a few branches dominate divergence, and the histogram
// differs between datasets.
func TestFigure5Shape(t *testing.T) {
	data, err := experiments.Figure5(testEnv())
	if err != nil {
		t.Fatalf("figure5: %v", err)
	}
	for _, ds := range []string{"1M", "UT"} {
		bars := data[ds]
		if len(bars) == 0 {
			t.Fatalf("%s: no branch bars", ds)
		}
		var div int
		for _, b := range bars {
			if b.Divergent > 0 {
				div++
			}
		}
		if div == 0 {
			t.Errorf("%s: no divergent branches", ds)
		}
		// Bars must be sorted by descending execution count.
		for i := 1; i < len(bars); i++ {
			if bars[i].Total > bars[i-1].Total {
				t.Errorf("%s: bars not sorted at %d", ds, i)
			}
		}
	}
	t.Logf("\n%s", experiments.FormatFigure5(data))
}

// TestFigure7And8Shape: miniFE-CSR is far more address-divergent than
// miniFE-ELL, with substantial fully-diverged accesses (paper: 73%).
func TestFigure7And8Shape(t *testing.T) {
	env := testEnv()
	rows, err := experiments.Figure7(env)
	if err != nil {
		t.Fatalf("figure7: %v", err)
	}
	var csr, ell experiments.Fig7Row
	for _, r := range rows {
		switch r.App {
		case "minife.csr":
			csr = r
		case "minife.ell":
			ell = r
		}
	}
	if csr.MeanUnique <= ell.MeanUnique {
		t.Errorf("CSR mean unique (%f) should exceed ELL (%f)", csr.MeanUnique, ell.MeanUnique)
	}
	if csr.FullyDiverged < 0.3 {
		t.Errorf("CSR fully-diverged share = %f, want substantial (paper: 0.73)", csr.FullyDiverged)
	}
	if ell.FullyDiverged > 0.2 {
		t.Errorf("ELL fully-diverged share = %f, want small", ell.FullyDiverged)
	}
	fig8, err := experiments.Figure8(env)
	if err != nil {
		t.Fatalf("figure8: %v", err)
	}
	if fig8.CSR.TotalAccesses() == 0 || fig8.ELL.TotalAccesses() == 0 {
		t.Fatal("empty figure 8 matrices")
	}
	t.Logf("\n%s\n%s", experiments.FormatFigure7(rows), experiments.FormatFigure8(fig8))
}

// TestTable2Shape: value profiling over a subset; constant bits are
// plentiful and some apps are scalar-heavy.
func TestTable2Shape(t *testing.T) {
	apps := []string{"demo.vecadd", "parboil.sgemm", "rodinia.b+tree", "parboil.bfs"}
	rows, err := experiments.Table2(testEnv(), apps)
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	if len(rows) != len(apps) {
		t.Fatalf("got %d rows, want %d", len(rows), len(apps))
	}
	for _, r := range rows {
		if r.DynConstBits <= 0 || r.DynConstBits > 100 {
			t.Errorf("%s: dyn const bits %f out of range", r.App, r.DynConstBits)
		}
		if r.DynScalar < 0 || r.DynScalar > 100 {
			t.Errorf("%s: dyn scalar %f out of range", r.App, r.DynScalar)
		}
	}
	t.Logf("\n%s", experiments.FormatTable2(rows))
}

// TestTable3Shape: instrumentation overhead ordering — value profiling
// (after every register write) must cost more kernel cycles than
// branch-only instrumentation.
func TestTable3Shape(t *testing.T) {
	apps := []string{"demo.vecadd", "parboil.sgemm", "rodinia.nn"}
	rows, err := experiments.Table3(testEnv(), apps)
	if err != nil {
		t.Fatalf("table3: %v", err)
	}
	for _, r := range rows {
		if r.K[2] <= r.K[0] {
			t.Errorf("%s: value profiling K (%f) should exceed branch K (%f)", r.App, r.K[2], r.K[0])
		}
		for cs := 0; cs < 4; cs++ {
			if r.K[cs] < 1 {
				t.Errorf("%s/%s: K=%f < 1 (instrumentation cannot speed kernels up)",
					r.App, experiments.CaseStudyNames[cs], r.K[cs])
			}
		}
	}
	t.Logf("\n%s", experiments.FormatTable3(rows))
}

// TestFigure10Small runs tiny campaigns end to end.
func TestFigure10Small(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	rows, err := experiments.Figure10(testEnv(), []string{"rodinia.nn", "rodinia.kmeans"}, 10, 3)
	if err != nil {
		t.Fatalf("figure10: %v", err)
	}
	out := experiments.FormatFigure10(rows)
	if !strings.Contains(out, "AVERAGE") {
		t.Errorf("missing average row:\n%s", out)
	}
	t.Logf("\n%s", out)
}

// TestCFICampaign: a small control campaign on the call-tree demo at the
// default concurrent SMs meets the 95% return-address detection floor with
// no false positive, and AssertCFIDetect refuses a floor above 100%, a
// false positive and a campaign that drew no return-address run.
func TestCFICampaign(t *testing.T) {
	rows, err := experiments.CFICoverage(testEnv(), []string{"demo.calltree"}, 25, 2015)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.AssertCFIDetect(rows, 0.95); err != nil {
		t.Errorf("floor 0.95: %v\n%s", err, experiments.FormatCFICoverage(rows))
	}
	if !strings.Contains(experiments.FormatCFICoverage(rows), "false positives on the uncorrupted run: 0") {
		t.Errorf("missing false-positive line:\n%s", experiments.FormatCFICoverage(rows))
	}
	if err := experiments.AssertCFIDetect(rows, 1.01); err == nil {
		t.Error("floor 1.01 passed")
	}
	fp := *rows[0].Result
	fp.FalsePositives = 1
	if err := experiments.AssertCFIDetect([]experiments.CFIRow{{App: "fp", Result: &fp}}, 0); err == nil {
		t.Error("a false positive passed")
	}
	var none faults.ControlResult
	if err := experiments.AssertCFIDetect([]experiments.CFIRow{{App: "none", Result: &none}}, 0); err == nil {
		t.Error("a campaign without return-address runs passed")
	}
}

// TestInstrumentCountersOnCachedBuilds: the instrumented build an
// experiment and a fault campaign share through their compile cache
// reports its instrument pass to their registry.
func TestInstrumentCountersOnCachedBuilds(t *testing.T) {
	reg := obs.NewRegistry()
	env := experiments.Env{Config: sim.MiniGPU(), Cache: sassi.NewCompileCache(), Metrics: reg}
	if _, err := experiments.Table2(env, []string{"demo.vecadd"}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(obs.MSassiKernels).Value(); n == 0 {
		t.Errorf("table2: %s = 0 after an instrumented build", obs.MSassiKernels)
	}

	spec, _ := workloads.Get("demo.vecadd")
	reg = obs.NewRegistry()
	c := faults.Campaign{Spec: spec, Dataset: spec.DefaultDataset(), Injections: 4, Seed: 1,
		Config: sim.MiniGPU(), Workers: 1, Metrics: reg}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(obs.MSassiKernels).Value(); n == 0 {
		t.Errorf("faults.Campaign: %s = 0 after an instrumented build", obs.MSassiKernels)
	}
}
