package analysis_test

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/analysis/concurrency"
	"sassi/internal/workloads"
)

// TestKernelFactsSolvePostDominatorsOnce: the value fixpoint's divergence
// passes, the cfi check and the dependence graph all read postdominators,
// and one KernelFacts computes them once: verifying a kernel, linting it
// for concurrency and building its dependence graph on the same facts
// runs PostDominators exactly once (cfi always asks).
func TestKernelFactsSolvePostDominatorsOnce(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				before := analysis.PostDominatorSolves()
				diags, facts := analysis.VerifyKernelFacts(k)
				if analysis.HasErrors(diags) || facts == nil {
					t.Fatalf("%s %s %s: does not verify: %v", name, v.name, k.Name, diags)
				}
				concurrency.Check(facts)
				sinkGraph = analysis.BuildDeps(facts)
				if n := analysis.PostDominatorSolves() - before; n != 1 {
					t.Errorf("%s %s %s: postdominators solved %d times, want 1", name, v.name, k.Name, n)
				}
			}
		}
	}
}
