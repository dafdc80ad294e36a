// Package concurrency is the inter-warp correctness layer over compiled
// SASS: a barrier-alignment check that reports BAR.SYNC instructions
// reachable while the warp is diverged (the condition the simulator
// rejects dynamically as "divergent BAR.SYNC would deadlock"), read from
// the kernel's control-stack walk, and a shared-memory race pass that
// partitions each kernel into barrier intervals and flags same-interval
// access pairs whose addresses cannot be proven thread-disjoint by the
// affine value lattice in internal/analysis/values.go.
//
// These checks are not in analysis.Verify's fixed list. The checks Verify
// runs certify what ptxas and SASSI emitted. These lint the user's
// program: a race or a divergent barrier is the author's bug, not the
// compiler's. sassi-lint runs them on the facts analysis.VerifyKernelFacts
// built, so the value fixpoint and the control-stack walk still run once
// per kernel. The dynamic counterpart, a SASSI race-detection handler
// cross-validating the static reports, lives in internal/handlers
// (RaceChecker).
package concurrency

import "sassi/internal/analysis"

// Check runs both concurrency passes over one kernel on the verification's
// shared value-lattice fixpoint.
func Check(f *analysis.KernelFacts) []analysis.Diagnostic {
	diags := CheckBarrierAlignment(f)
	diags = append(diags, CheckSharedRaces(f.CFG, f.Values())...)
	return diags
}
