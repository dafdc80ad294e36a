package sim_test

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// TestCoreComputesEveryLane: a handler may change one lane's copy of a
// value the value lattice proves warp-uniform — a fault injector flipping a
// bit does exactly that — and every later instruction must compute each
// lane from that lane's own copy, as the reference interpreter does. Lane 5
// clears the guard P0 of the guarded IADD, lane 6 changes R0, the source of
// the plain IADD and of the ISETP that SEL observes.
func TestCoreComputesEveryLane(t *testing.T) {
	const guardedAdd, add, setpP1 = 3, 4, 5
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 7),
			setp(0, sass.CmpEQ, false, sass.R(0), sass.Imm(7)),
			sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("h")}),
			guarded(alu(sass.OpIADD, sass.Mods{}, 10, sass.R(0), sass.Imm(1)), 0, false),
			alu(sass.OpIADD, sass.Mods{}, 11, sass.R(0), sass.Imm(1)),
			setp(1, sass.CmpEQ, false, sass.R(0), sass.Imm(7)),
			alu(sass.OpSEL, sass.Mods{}, 12, sass.Imm(1), sass.Imm(0), sass.P(1)),
		},
		outRegs: []uint8{10, 11, 12},
		handler: func(w *sim.Warp) {
			w.Thread(5).WritePred(0, false)
			w.Thread(6).WriteReg(0, 100)
		},
	}

	// The premise: the lattice proves each instruction's sources and guard
	// warp-uniform, so a core trusting it would run them on one lane.
	cfg, err := sass.BuildCFG(h.kernel(t))
	if err != nil {
		t.Fatal(err)
	}
	v := analysis.NewKernelFacts(cfg).Values()
	if !v.GuardFacts(guardedAdd).Uniform {
		t.Fatal("lattice does not prove the guard P0 uniform")
	}
	for _, idx := range []int{guardedAdd, add, setpP1} {
		if !v.RegValue(idx, 0).IsUniform() {
			t.Fatalf("lattice does not prove R0 uniform at %d", idx)
		}
	}

	res := h.run(t) // fails unless the default core agrees with the reference
	for lane, got := range res {
		want := []uint32{8, 8, 1}
		switch lane {
		case 5:
			want[0] = 0
		case 6:
			want = []uint32{101, 101, 0}
		}
		if got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Errorf("lane %d: R10, R11, R12 = %v, want %v", lane, got, want)
		}
	}
}
