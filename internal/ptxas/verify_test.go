package ptxas_test

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/ptxas"
	"sassi/internal/workloads"
)

// TestVerifyReportsCFIWithoutHandlers: Verify runs the same checks in every
// binary. This test binary links no handler package and nothing besides
// analysis that knows about control-flow integrity, and Verify still
// reports a cfi error on each CFI mutant (compiled without the verify
// post-pass, which would refuse them).
func TestVerifyReportsCFIWithoutHandlers(t *testing.T) {
	for _, name := range []string{"mutant.cfi-ret-nocall", "mutant.cfi-cal-midblock", "mutant.cfi-ssy-skew"} {
		spec, ok := workloads.GetMutant(name)
		if !ok {
			t.Fatalf("no mutant %s", name)
		}
		prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		found := false
		for _, d := range analysis.Errors(analysis.Verify(prog)) {
			found = found || d.Check == analysis.CheckCFI
		}
		if !found {
			t.Errorf("%s: Verify reported no cfi error", name)
		}
	}
}
