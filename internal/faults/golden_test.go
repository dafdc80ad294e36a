package faults_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/faults"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/outcomes.golden from this tree's campaigns")

const goldenInjections = 24

var goldenSeeds = []uint64{1, 2015}

// goldenApps are the register-campaign programs of the per-run golden: the
// three the benchmark runs, one with shared memory and barriers, and two
// that launch more than once.
var goldenApps = []string{
	"demo.vecadd", "rodinia.nn", "parboil.histo",
	"parboil.sgemm", "rodinia.gaussian", "rodinia.kmeans",
}

// goldenCtrlApp is the control-campaign program of the golden.
const goldenCtrlApp = "demo.calltree"

// goldenRuns returns every campaign of the golden as key -> per-run outcome
// names, in file order. The file was recorded at the parent of the commit
// that made the kernel a property of the CTA, where every CTA of every
// launch ran instrumented code on a fresh device.
func goldenRuns(t *testing.T, workers int, widen bool) (keys []string, got map[string]string) {
	t.Helper()
	got = make(map[string]string)
	add := func(app string, seed uint64, names []string) {
		key := fmt.Sprintf("%s seed=%d", app, seed)
		keys = append(keys, key)
		got[key] = strings.Join(names, " ")
	}
	for _, app := range goldenApps {
		spec, ok := workloads.Get(app)
		if !ok {
			t.Fatalf("%s not registered", app)
		}
		for _, seed := range goldenSeeds {
			c := &faults.Campaign{
				Spec: spec, Dataset: spec.DefaultDataset(),
				Injections: goldenInjections, Seed: seed,
				Config: sim.MiniGPU(), Workers: workers,
			}
			outcomes, err := c.RunOutcomes(widen)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", app, seed, err)
			}
			add(app, seed, names(outcomes))
		}
	}
	spec, ok := workloads.Get(goldenCtrlApp)
	if !ok {
		t.Fatalf("%s not registered", goldenCtrlApp)
	}
	for _, seed := range goldenSeeds {
		c := &faults.ControlCampaign{
			Spec: spec, Dataset: spec.DefaultDataset(),
			Injections: goldenInjections, Seed: seed,
			Config: sim.MiniGPU(), Workers: workers,
		}
		outcomes, err := c.RunOutcomes(widen)
		if err != nil {
			t.Fatalf("%s seed=%d: %v", goldenCtrlApp, seed, err)
		}
		add(goldenCtrlApp+" control", seed, names(outcomes))
	}
	return keys, got
}

func names[T fmt.Stringer](outcomes []T) []string {
	out := make([]string, len(outcomes))
	for i, o := range outcomes {
		out[i] = o.String()
	}
	return out
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (record it with -update): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, vals, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[key] = vals
	}
	return want
}

// checkGolden compares campaigns run by run and names every run that
// differs.
func checkGolden(t *testing.T, what string, keys []string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d campaigns, golden has %d", what, len(got), len(want))
	}
	for _, key := range keys {
		g, w := strings.Fields(got[key]), strings.Fields(want[key])
		if len(g) != len(w) {
			t.Errorf("%s: %s: %d runs, golden has %d", what, key, len(g), len(w))
			continue
		}
		for run := range g {
			if g[run] != w[run] {
				t.Errorf("%s: %s: run %d is %s, golden %s", what, key, run, g[run], w[run])
			}
		}
	}
}

// TestPerRunOutcomeGolden pins every injection run's outcome — the vector,
// not the histogram — to what the whole-grid-instrumented, fresh-device
// campaign of the parent commit produced: an injection run that executes
// instrumented code only in the warp the fault lands in, on a device the
// worker resets between runs, must classify each run the same, at any
// worker count.
func TestPerRunOutcomeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("14 campaigns of 24 runs, twice")
	}
	path := filepath.Join("testdata", "outcomes.golden")
	if *update {
		keys, got := goldenRuns(t, 1, false)
		var b strings.Builder
		b.WriteString("# Per-run outcomes of faults.Campaign and faults.ControlCampaign (\"control\"):\n")
		b.WriteString("# default dataset, sim.MiniGPU(), concurrent SMs, 24 injections per seed.\n")
		b.WriteString("# Regenerate only when outcomes are meant to change:\n")
		b.WriteString("#   go test ./internal/faults -run PerRunOutcomeGolden -update\n")
		for _, key := range keys {
			fmt.Fprintf(&b, "%s: %s\n", key, got[key])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, path)
	for _, workers := range []int{1, 4} {
		keys, got := goldenRuns(t, workers, false)
		checkGolden(t, fmt.Sprintf("workers=%d", workers), keys, got, want)
	}
}

// TestPerRunOutcomeGoldenWidened runs the same campaigns with the
// instrumented warp set widened to every warp of every launch — what a
// campaign did before it selected kernels per CTA — against the same
// golden, so the oracle for the narrow set is the mechanism itself.
func TestPerRunOutcomeGoldenWidened(t *testing.T) {
	if testing.Short() {
		t.Skip("14 whole-grid campaigns of 24 runs")
	}
	want := readGolden(t, filepath.Join("testdata", "outcomes.golden"))
	keys, got := goldenRuns(t, 4, true)
	checkGolden(t, "widened", keys, got, want)
}
