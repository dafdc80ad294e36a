package analysis_test

import (
	"math/bits"
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

// TestCrossBlockRAWAllocatesNothingPerQuery: the cross-block pass carries
// one reaching set through each block, so on the costliest verified kernel
// it allocates that set and its growing edge list, nothing per (use,
// slot) query.
func TestCrossBlockRAWAllocatesNothingPerQuery(t *testing.T) {
	pass, queries := analysis.CrossBlockRAWPass(analysis.NewKernelFacts(sgemmMemdiv(t)))
	var edges []analysis.Edge
	allocs := testing.AllocsPerRun(10, func() { edges = pass() })
	// The set, the edge list's first append and one growth per power of
	// two of the edges.
	limit := 2 + bits.Len(uint(len(edges)))
	t.Logf("%d queries, %d edges: %.0f allocations per pass, limit %d", queries, len(edges), allocs, limit)
	if queries < 10*limit {
		t.Fatalf("%d queries are too few to tell per-query allocations from %d", queries, limit)
	}
	if allocs > float64(limit) {
		t.Errorf("crossBlockRAW allocates %.0f times per pass for %d queries, want at most %d", allocs, queries, limit)
	}
}
