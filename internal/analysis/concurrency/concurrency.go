// Package concurrency is the inter-warp correctness layer over compiled
// SASS: a barrier-alignment pass that finds BAR.SYNC instructions
// reachable while the warp is diverged (the condition the simulator
// rejects dynamically as "divergent BAR.SYNC would deadlock"), and a
// shared-memory race pass that partitions each kernel into barrier
// intervals and flags same-interval access pairs whose addresses cannot
// be proven thread-disjoint by the affine value lattice in
// internal/analysis/values.go.
//
// Both passes register with the analysis.Verify registry on import, so
// any consumer that blank-imports this package gets them in every
// compile/instrument verification. The dynamic counterpart — a SASSI
// race-detection handler cross-validating the static reports — lives in
// internal/handlers (RaceChecker).
package concurrency

import "sassi/internal/analysis"

func init() {
	analysis.RegisterKernelCheck("concurrency", Check)
}

// Check runs both concurrency passes over one kernel on the verification's
// shared value-lattice fixpoint. This is the function the Verify registry
// calls.
func Check(f *analysis.KernelFacts) []analysis.Diagnostic {
	diags := CheckBarrierAlignment(f.CFG, f.Values())
	diags = append(diags, CheckSharedRaces(f.CFG, f.Values())...)
	return diags
}
