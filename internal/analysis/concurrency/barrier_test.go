package concurrency

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
)

// A BAR inside one arm of a tid-dependent diamond executes while the
// other arm's lanes are deferred: the exact condition the simulator
// rejects dynamically.
func TestBarrierInsideDivergentArm(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, map[string]int{"else": 6, "join": 9},
		tidx(0),                          // 0
		setp(0, sass.R(0), sass.Imm(16)), // 1: P0 = tid.x < 16
		ssy("join"),                      // 2
		guarded(bra("else"), 0, true),    // 3: @!P0 BRA else
		nop(),                            // 4: then
		sync(),                           // 5
		bar(),                            // 6: else — runs with then-lanes deferred
		nop(),                            // 7
		sync(),                           // 8
		exit(),                           // 9: join
	)
	d, ok := findDiag(checkKernel(t, k), analysis.CheckBarrier, "has not reconverged")
	if !ok {
		t.Fatal("divergent-arm BAR not reported")
	}
	if d.Sev != analysis.Error || d.Instr != 6 {
		t.Errorf("diagnostic = %+v, want Error at instr 6", d)
	}
}

// The same diamond with the BAR moved past the reconvergence point is
// clean: both arms SYNC before any lane reaches it.
func TestBarrierAfterReconvergenceClean(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, map[string]int{"else": 6, "join": 9},
		tidx(0),
		setp(0, sass.R(0), sass.Imm(16)),
		ssy("join"),
		guarded(bra("else"), 0, true),
		nop(), // then
		sync(),
		nop(), // else
		nop(),
		sync(),
		bar(), // 9: join — warp fully reconverged
		exit(),
	)
	wantNone(t, checkKernel(t, k))
}

// A provably warp-uniform branch guard never splits the warp, so a BAR
// inside either arm is fine.
func TestBarrierUnderUniformBranchClean(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, map[string]int{"else": 6, "join": 8},
		ctaidx(0),
		setp(0, sass.R(0), sass.Imm(1)), // P0 = ctaid.x < 1: CTA-uniform
		ssy("join"),
		guarded(bra("else"), 0, true),
		bar(), // then
		sync(),
		bar(), // else
		sync(),
		exit(), // join
	)
	wantNone(t, checkKernel(t, k))
}

// A guard the lattice cannot reason about degrades the report to a
// warning rather than a hard error.
func TestBarrierUnprovableGuardWarns(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, map[string]int{"else": 6, "join": 9},
		// P0 compares a loaded value: neither uniform nor provably tid-dep.
		lds(0, sass.RZ, 0),
		setp(0, sass.R(0), sass.Imm(16)),
		ssy("join"),
		guarded(bra("else"), 0, true),
		nop(),
		sync(),
		bar(),
		nop(),
		sync(),
		exit(),
	)
	d, ok := findDiag(checkKernel(t, k), analysis.CheckBarrier, "has not reconverged")
	if !ok {
		t.Fatal("possibly-divergent BAR not reported")
	}
	if d.Sev != analysis.Warning {
		t.Errorf("severity = %v, want Warning for unprovable guard", d.Sev)
	}
}

// A BAR whose own guard is thread-dependent deadlocks the lanes that
// skip it (the simulator checks exec == Active).
func TestGuardedBarrierTidDependent(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		tidx(0),
		setp(0, sass.R(0), sass.Imm(16)),
		guarded(bar(), 0, false), // @P0 BAR.SYNC
		exit(),
	)
	d, ok := findDiag(checkKernel(t, k), analysis.CheckBarrier, "never arrive")
	if !ok {
		t.Fatal("tid-guarded BAR not reported")
	}
	if d.Sev != analysis.Error || d.Instr != 2 {
		t.Errorf("diagnostic = %+v, want Error at instr 2", d)
	}
}

// Even a uniform-guarded BAR is suspicious: whenever the guard is false
// the active lanes skip a CTA-wide rendezvous other CTAs' warps... other
// warps of the CTA may still be waiting on.
func TestGuardedBarrierUniformWarns(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		ctaidx(0),
		setp(0, sass.R(0), sass.Imm(1)),
		guarded(bar(), 0, false),
		exit(),
	)
	d, ok := findDiag(checkKernel(t, k), analysis.CheckBarrier, "guard evaluates false")
	if !ok {
		t.Fatal("uniform-guarded BAR not reported")
	}
	if d.Sev != analysis.Warning {
		t.Errorf("severity = %v, want Warning", d.Sev)
	}
}

// A divergent loop (trip count depends on tid, guarded-BRA back edge)
// whose BAR sits after the loop-exit SYNC must stay silent: every
// deferral the latch pushes is popped before the barrier.
func TestBarrierAfterDivergentLoopClean(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, map[string]int{"head": 3, "reconv": 7},
		tidx(0), // 0
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(1)}, []sass.Operand{sass.Imm(0)}), // 1
		ssy("reconv"),                 // 2
		setp(0, sass.R(1), sass.R(0)), // 3: head: P0 = i < tid.x
		sass.New(sass.OpIADD, []sass.Operand{sass.R(1)}, []sass.Operand{sass.R(1), sass.Imm(1)}), // 4
		guarded(bra("head"), 0, false), // 5: latch — mixed outcome defers exiting lanes
		sync(),                         // 6: loop exit pops each deferred group
		bar(),                          // 7: reconv — warp whole again
		exit(),                         // 8
	)
	wantNone(t, checkKernel(t, k))
}

// The buggy variant: the loop-exit SYNC is missing, so lanes that left
// the loop early are still deferred when the barrier executes.
func TestBarrierAfterDivergentLoopMissingSync(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, map[string]int{"head": 3},
		tidx(0),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(1)}, []sass.Operand{sass.Imm(0)}),
		ssy("head"), // degenerate: reconvergence never reached before BAR
		setp(0, sass.R(1), sass.R(0)),
		sass.New(sass.OpIADD, []sass.Operand{sass.R(1)}, []sass.Operand{sass.R(1), sass.Imm(1)}),
		guarded(bra("head"), 0, false),
		bar(), // 6: reached straight off the latch with deferrals live
		exit(),
	)
	// The latch guard compares the loop counter (unknown after the
	// back-edge join) with tid, so tid-dependence is unprovable: the
	// report is a conservative warning rather than a hard error.
	d, ok := findDiag(checkKernel(t, k), analysis.CheckBarrier, "has not reconverged")
	if !ok {
		t.Fatal("missing-SYNC loop barrier not reported")
	}
	if d.Instr != 6 {
		t.Errorf("diagnostic = %+v, want report at instr 6", d)
	}
}
