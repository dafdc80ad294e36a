package concurrency

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/mem"
	"sassi/internal/sass"
)

// Write then read of adjacent shared slots: racy in one barrier
// interval, clean when a BAR separates the two accesses.
func TestRacePhaseSeparation(t *testing.T) {
	build := func(withBar bool) *sass.Kernel {
		instrs := []sass.Instruction{
			tidx(0),
			shl(1, 0, 2), // R1 = 4*tid.x
			sts(1, 0, 0), // shared[4t] = tid
		}
		if withBar {
			instrs = append(instrs, bar())
		}
		instrs = append(instrs,
			lds(2, 1, 4), // shared[4t+4]: thread t reads thread t+1's slot
			exit(),
		)
		return testKernel(t, [3]int{32, 1, 1}, nil, instrs...)
	}

	diags := checkKernel(t, build(false))
	d, ok := findDiag(diags, analysis.CheckSharedRace, "same barrier interval")
	if !ok {
		t.Fatal("cross-thread write/read in one interval not reported")
	}
	if d.Sev != analysis.Warning {
		t.Errorf("severity = %v, want Warning", d.Sev)
	}

	wantNone(t, checkKernel(t, build(true)))
}

// An address ignoring one block dimension is not injective: two threads
// of the same interval hit the same slot, so even the single STS races
// with itself.
func TestRaceNonInjectiveSelfStore(t *testing.T) {
	k := testKernel(t, [3]int{16, 16, 1}, nil,
		sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sass.SRTidY)}),
		shl(1, 0, 2),
		sts(1, 0, 0), // shared[4*tid.y]: collides across tid.x
		exit(),
	)
	if _, ok := findDiag(checkKernel(t, k), analysis.CheckSharedRace, "not provably thread-disjoint"); !ok {
		t.Fatal("non-injective self-store not reported")
	}
	// The same store is injective — hence silent — on a 1-D block where
	// tid.y is constant zero... expressed here via tid.x on a 1-D hint.
	k2 := testKernel(t, [3]int{32, 1, 1}, nil,
		tidx(0),
		shl(1, 0, 2),
		sts(1, 0, 0),
		exit(),
	)
	wantNone(t, checkKernel(t, k2))
}

// Without a block-dimension hint the prover cannot bound tid terms, so
// the injective store is (conservatively) still reported.
func TestRaceNoBlockDimHintConservative(t *testing.T) {
	k := testKernel(t, [3]int{}, nil,
		tidx(0),
		shl(1, 0, 2),
		sts(1, 0, 0),
		exit(),
	)
	if _, ok := findDiag(checkKernel(t, k), analysis.CheckSharedRace, "not provably thread-disjoint"); !ok {
		t.Fatal("expected conservative report without block-dim hint")
	}
}

// Two atomic updates of the same cell serialize: no race. A plain read
// of the atomically-updated cell in the same interval still races.
func TestRaceAtomicsSerialize(t *testing.T) {
	atomShared := func() sass.Instruction {
		return sass.Instruction{Guard: sass.Always, Op: sass.OpATOMS,
			Mods: sass.Mods{Atom: sass.AtomADD},
			Dsts: []sass.Operand{sass.R(2)},
			Srcs: []sass.Operand{sass.Mem(sass.RZ, 0), sass.R(0)}}
	}
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		tidx(0),
		atomShared(),
		atomShared(),
		exit(),
	)
	wantNone(t, checkKernel(t, k))

	k2 := testKernel(t, [3]int{32, 1, 1}, nil,
		tidx(0),
		atomShared(),
		lds(3, sass.RZ, 0), // non-atomic read of the counter, same interval
		exit(),
	)
	if _, ok := findDiag(checkKernel(t, k2), analysis.CheckSharedRace, "not provably thread-disjoint"); !ok {
		t.Fatal("atomic/non-atomic mix not reported")
	}
}

// A generic ST whose constant address lands in the shared window is
// attributed to shared memory and compared against STS addresses in the
// same normalized (generic) form.
func TestRaceGenericConstSharedStore(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		tidx(0),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(1)}, []sass.Operand{sass.Imm(int64(mem.SharedBase) + 16)}),
		sass.New(sass.OpST, nil, []sass.Operand{sass.Mem(1, 0), sass.R(0)}),
		shl(2, 0, 2),
		lds(3, 2, 0), // shared[4t]: thread 4 reads the ST'd cell
		exit(),
	)
	if _, ok := findDiag(checkKernel(t, k), analysis.CheckSharedRace, "not provably thread-disjoint"); !ok {
		t.Fatal("generic const shared store vs LDS not reported")
	}
}

// Provably disjoint tiles (the sgemm pattern): writes at 4*(16*ty+tx)
// and reads of a second tile 1024 bytes away never alias, even in the
// same interval.
func TestRaceDisjointTilesClean(t *testing.T) {
	k := testKernel(t, [3]int{16, 16, 1}, nil,
		tidx(0),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(1)}, []sass.Operand{sass.SReg(sass.SRTidY)}),
		shl(2, 0, 2), // 4*tx
		shl(3, 1, 6), // 64*ty
		sass.New(sass.OpIADD, []sass.Operand{sass.R(4)}, []sass.Operand{sass.R(2), sass.R(3)}),
		sts(4, 0, 0),    // tile A write: 4tx+64ty
		lds(5, 4, 1024), // tile B read: +1024, same interval
		exit(),
	)
	wantNone(t, checkKernel(t, k))
}

// A guarded BAR does not close the interval (some threads may bypass
// it), so accesses on either side still race.
func TestRaceGuardedBarrierDoesNotSeparate(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		tidx(0),
		setp(0, sass.R(0), sass.Imm(16)),
		shl(1, 0, 2),
		sts(1, 0, 0),
		guarded(bar(), 0, false), // @P0 BAR — flagged by the barrier pass too
		lds(2, 1, 4),
		exit(),
	)
	if _, ok := findDiag(checkKernel(t, k), analysis.CheckSharedRace, "same barrier interval"); !ok {
		t.Fatal("accesses straddling a guarded BAR not reported as racy")
	}
}
