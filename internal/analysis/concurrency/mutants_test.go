package concurrency

import (
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/workloads"
)

// TestMutantsFlagged asserts the race pass reports every seed-buggy
// mutant (and, with TestBuiltinWorkloadsClean, that the reports are not
// blanket noise: the un-mutated suite is silent).
func TestMutantsFlagged(t *testing.T) {
	for _, name := range workloads.MutantNames() {
		if strings.HasPrefix(name, "mutant.cfi-") {
			continue // control-flow mutants; the cfi pass owns their rejection
		}
		spec, ok := workloads.GetMutant(name)
		if !ok {
			t.Fatalf("mutant %s not registered", name)
		}
		prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		flagged := false
		for _, k := range prog.Kernels {
			cfg, err := sass.BuildCFG(k)
			if err != nil {
				t.Fatalf("%s/%s: cfg: %v", name, k.Name, err)
			}
			diags := Check(analysis.NewKernelFacts(cfg))
			if _, ok := findDiag(diags, analysis.CheckSharedRace, "barrier interval"); ok {
				flagged = true
			}
			// Mutants must stay buildable under the default verifier:
			// races are warnings, and none of them misuses barriers in a
			// way the barrier pass calls a hard error.
			for _, d := range diags {
				if d.Sev == analysis.Error {
					t.Errorf("%s: unexpected hard error: %v", name, d)
				}
			}
		}
		if !flagged {
			t.Errorf("%s: no shared-race warning reported", name)
		}
	}
}

// TestMutantRegistrySeparate keeps the buggy mutants out of the
// benchmark-suite registry that CI lints with -Werror.
func TestMutantRegistrySeparate(t *testing.T) {
	if len(workloads.MutantNames()) < 3 {
		t.Fatalf("expected at least 3 mutants, got %v", workloads.MutantNames())
	}
	for _, name := range workloads.MutantNames() {
		if _, inSuite := workloads.Get(name); inSuite {
			t.Errorf("mutant %s leaked into the workload suite registry", name)
		}
	}
}
