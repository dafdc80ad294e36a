package handlers_test

import (
	"slices"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/analysis/concurrency"
	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// raceCheck compiles and runs a spec under the RaceChecker handler and
// returns the statically-predicted race pairs alongside the dynamically
// observed ones, with SMs simulated one after another when sequential is
// set. Mutant runs are allowed to produce wrong output (they
// are seeded data races); launch failures are not.
func raceCheck(t *testing.T, spec *workloads.Spec, dataset string, sequential bool) (static [][2]int, dynamic []handlers.RacePair) {
	t.Helper()
	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		t.Fatalf("%s: compile: %v", spec.Name, err)
	}
	for _, k := range prog.Kernels {
		cfg, err := sass.BuildCFG(k)
		if err != nil {
			t.Fatalf("%s/%s: cfg: %v", spec.Name, k.Name, err)
		}
		static = append(static, concurrency.SharedRacePairs(cfg, analysis.NewKernelFacts(cfg).Values())...)
	}

	cfg := sim.MiniGPU()
	cfg.SequentialSMs = sequential
	ctx := cuda.NewContext(cfg)
	checker := handlers.NewRaceChecker()
	if err := sassi.Instrument(prog, checker.Options()); err != nil {
		t.Fatalf("%s: instrument: %v", spec.Name, err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(checker.Handler())
	rt.Attach(ctx.Device())
	if _, err := spec.Run(ctx, prog, dataset); err != nil {
		t.Fatalf("%s: run: %v", spec.Name, err)
	}
	return static, checker.Races()
}

// TestRaceCheckerConfirmsStaticReports cross-validates the static race
// pass against the dynamic handler on every seed-buggy mutant: each
// statically-reported pair must be observed dynamically — as the exact
// site pair, or (when the static address went unknown, e.g. sgemm's
// loop-indexed tile reads, which pair one write conservatively with
// both tiles' reads) with each of its sites racing dynamically.
func TestRaceCheckerConfirmsStaticReports(t *testing.T) {
	for _, name := range workloads.MutantNames() {
		if strings.HasPrefix(name, "mutant.cfi-") {
			continue // control-flow mutants; the cfi pass owns their rejection
		}
		t.Run(name, func(t *testing.T) {
			spec, _ := workloads.GetMutant(name)
			static, dynamic := raceCheck(t, spec, spec.DefaultDataset(), true)
			if len(static) == 0 {
				t.Fatal("static pass silent on a seeded race")
			}
			if len(dynamic) == 0 {
				t.Fatal("dynamic handler observed no race on a seeded race")
			}
			exact := map[handlers.RacePair]bool{}
			sites := map[int]bool{}
			for _, p := range dynamic {
				exact[p] = true
				sites[p.A], sites[p.B] = true, true
			}
			for _, p := range static {
				a, b := p[0], p[1]
				if a > b {
					a, b = b, a
				}
				if exact[handlers.RacePair{A: a, B: b}] {
					continue
				}
				if !sites[a] || !sites[b] {
					t.Errorf("static race (%d,%d) never observed dynamically (dynamic: %v)", a, b, dynamic)
				}
			}
		})
	}
}

// TestRaceCheckerSilentOnCleanWorkloads: properly-barriered built-ins
// produce neither static reports nor dynamic observations — the barrier
// phase counters order every cross-thread access pair.
func TestRaceCheckerSilentOnCleanWorkloads(t *testing.T) {
	for _, tc := range []struct{ workload, dataset string }{
		{"parboil.sgemm", "small"},
		{"parboil.tpacf", "small"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			spec, ok := workloads.Get(tc.workload)
			if !ok {
				t.Fatalf("workload %s not registered", tc.workload)
			}
			static, dynamic := raceCheck(t, spec, tc.dataset, true)
			if len(static) != 0 {
				t.Errorf("static false positives: %v", static)
			}
			if len(dynamic) != 0 {
				t.Errorf("dynamic false positives: %v", dynamic)
			}
		})
	}
}

// TestMutantFindingsSMOrderFree: each seed-buggy mutant's findings under
// its tool — the CFI checker's violations for the control-flow mutants,
// the race checker's races for the others — are the same whether SMs run
// concurrently or one after another, so `sassi -tool cfi|racecheck`
// reports one verdict and one list at the default concurrent SMs.
func TestMutantFindingsSMOrderFree(t *testing.T) {
	for _, name := range workloads.MutantNames() {
		t.Run(name, func(t *testing.T) {
			spec, _ := workloads.GetMutant(name)
			if strings.HasPrefix(name, "mutant.cfi-") {
				seq, _ := runCFI(t, spec, nil, true)
				par, _ := runCFI(t, spec, nil, false)
				if !slices.Equal(seq.Violations(), par.Violations()) || seq.Dropped != par.Dropped {
					t.Errorf("violations differ:\n sequential: %v (+%d)\n concurrent: %v (+%d)",
						seq.Violations(), seq.Dropped, par.Violations(), par.Dropped)
				}
				if len(seq.Violations()) == 0 {
					t.Error("no violations")
				}
				return
			}
			_, seq := raceCheck(t, spec, spec.DefaultDataset(), true)
			_, par := raceCheck(t, spec, spec.DefaultDataset(), false)
			if !slices.Equal(seq, par) {
				t.Errorf("races differ:\n sequential: %v\n concurrent: %v", seq, par)
			}
			if len(seq) == 0 {
				t.Error("no races")
			}
		})
	}
}
