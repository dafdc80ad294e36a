package handlers_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The equivalence tests pin the case-study profilers to
// testdata/golden_{branch,memdiv,value}.txt: per program, a digest of the
// tool's decoded results and every launch's KernelStats. The files were
// recorded from the goroutine-per-lane rendezvous implementation of
// Figures 4/6/9 at the commit before it was deleted, so a pass means the
// warp-level handlers reproduce the per-thread ones bit for bit — on the
// default core and on the reference interpreter.
// Regenerate (only for an intended change of a profiler's output or of the
// modeled statistics) with
// `go test ./internal/handlers -run Equivalence -update`.

// toolPrograms are the benchmark's tools-suite programs, one per behaviour
// the profilers react to; valuePrograms the three its value profiler runs.
var (
	toolPrograms = []string{
		"parboil.sgemm", "parboil.spmv", "parboil.stencil", "parboil.histo",
		"rodinia.b+tree", "rodinia.nn", "rodinia.hotspot", "rodinia.pathfinder",
	}
	valuePrograms = []string{"parboil.histo", "rodinia.b+tree", "rodinia.nn"}
)

// core is one way to execute the programs: the model (default core or
// reference interpreter) and the SM dispatch. The subtest names predate
// the default flip: "predecoded" is what every default sim.Config runs,
// "concurrent" and "sequential" are the reference interpreter with SMs on
// goroutines and in order.
type core struct {
	name                     string
	reference, sequentialSMs bool
}

var cores = []core{
	{"predecoded", false, false},
	{"predecoded-sequential", false, true},
	{"concurrent", true, false},
	{"sequential", true, true},
}

// goldenTool wires one profiler and returns its handler, options and a
// function decoding its results.
type goldenTool func(ctx *cuda.Context) (*sassi.Handler, sassi.Options, func() (any, error))

// goldenRun profiles one program on the benchmark's device configuration
// and returns its golden record.
func goldenRun(t *testing.T, program string, c core, tool goldenTool) string {
	t.Helper()
	spec, ok := workloads.Get(program)
	if !ok {
		t.Fatalf("workload %s not registered", program)
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := sim.KeplerK10()
	cfg.ReferenceInterpreter, cfg.SequentialSMs = c.reference, c.sequentialSMs
	ctx := cuda.NewContext(cfg)
	var launches []string
	ctx.Subscribe(cuda.LaunchCallbacks{PostLaunch: func(_ string, _ int, s *sim.KernelStats, _ error) {
		if s != nil {
			launches = append(launches, fmt.Sprintf("  %+v\n", *s))
		}
	}})
	h, opts, collect := tool(ctx)
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatalf("instrument: %v", err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(h)
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("instrumented run no longer verifies: %v", res.VerifyErr)
	}
	results, err := collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	d := fnv.New64a()
	fmt.Fprintf(d, "%v", results)
	return fmt.Sprintf("%s %s results=%016x\n%s", program, h.Name, d.Sum64(), strings.Join(launches, ""))
}

// checkGolden runs tool over programs on every core and compares the
// concatenated records with testdata/golden_<name>.txt; with -update it
// first rewrites the file from the default core.
func checkGolden(t *testing.T, name string, programs []string, tool goldenTool) {
	file := filepath.Join("testdata", "golden_"+name+".txt")
	record := func(t *testing.T, c core) string {
		var b strings.Builder
		for _, p := range programs {
			b.WriteString(goldenRun(t, p, c, tool))
		}
		return b.String()
	}
	if *updateGolden {
		if err := os.WriteFile(file, []byte(record(t, cores[0])), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/handlers -run Equivalence -update` to create it)", err)
	}
	run := cores
	if testing.Short() {
		run = run[:1]
	}
	for _, c := range run {
		t.Run(c.name, func(t *testing.T) {
			if got := record(t, c); got != string(want) {
				t.Errorf("differs from %s (recorded from the per-lane rendezvous handlers)\n--- got ---\n%s--- want ---\n%s", file, got, want)
			}
		})
	}
}

// TestBranchProfilerEquivalence: Figure 4 on the eight tools-suite programs.
func TestBranchProfilerEquivalence(t *testing.T) {
	checkGolden(t, "branch", toolPrograms, func(ctx *cuda.Context) (*sassi.Handler, sassi.Options, func() (any, error)) {
		p := handlers.NewBranchProfiler(ctx)
		return p.Handler(), p.Options(), func() (any, error) { return p.Results() }
	})
}

// TestMemDivProfilerEquivalence: Figure 6 on the eight tools-suite programs.
func TestMemDivProfilerEquivalence(t *testing.T) {
	checkGolden(t, "memdiv", toolPrograms, func(ctx *cuda.Context) (*sassi.Handler, sassi.Options, func() (any, error)) {
		p := handlers.NewMemDivProfiler(ctx)
		return p.Handler(), p.Options(), func() (any, error) { return p.Matrix() }
	})
}

// TestValueProfilerEquivalence: Figure 9 on histo, b+tree and nn.
func TestValueProfilerEquivalence(t *testing.T) {
	checkGolden(t, "value", valuePrograms, func(ctx *cuda.Context) (*sassi.Handler, sassi.Options, func() (any, error)) {
		p := handlers.NewValueProfiler(ctx)
		return p.Handler(), p.Options(), func() (any, error) { return p.Results() }
	})
}
