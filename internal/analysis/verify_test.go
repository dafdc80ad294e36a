package analysis_test

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/ptxas"
	"sassi/internal/workloads"
)

// TestVerifyLeavesConcurrencyOut: the concurrency checks lint the user's
// program and are not in Verify's list, even in a binary that links
// internal/analysis/concurrency (this one does). mutant.stencil-halo has a
// shared-memory race sassi-lint reports; Verify reports nothing of it.
func TestVerifyLeavesConcurrencyOut(t *testing.T) {
	spec, ok := workloads.GetMutant("mutant.stencil-halo")
	if !ok {
		t.Fatal("no mutant mutant.stencil-halo")
	}
	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.Verify(prog) {
		if d.Check == analysis.CheckBarrier || d.Check == analysis.CheckSharedRace {
			t.Errorf("Verify reported a concurrency finding: %v", d)
		}
	}
}
