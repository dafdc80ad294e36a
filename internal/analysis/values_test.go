package analysis

import (
	"testing"

	"sassi/internal/sass"
)

func analyze(t *testing.T, k *sass.Kernel) *Valuation {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	return AnalyzeValues(cfg)
}

func TestValuesAffineTidTracking(t *testing.T) {
	// R2 = tid.x; R3 = R2 << 2; R4 = R3 + c[0][0x140]; R5 = R4 + 16.
	k := testKernel(t, nil,
		sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpSHL, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(2)}),
		sass.New(sass.OpIADD, []sass.Operand{sass.R(4)}, []sass.Operand{sass.R(3), sass.CMem(0, 0x140)}),
		sass.New(sass.OpIADD32, []sass.Operand{sass.R(5)}, []sass.Operand{sass.R(4), sass.Imm(16)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	v := analyze(t, k)

	r5 := v.RegValue(4, 5) // state before EXIT
	if !r5.Known {
		t.Fatalf("R5 not known: %+v", r5)
	}
	if r5.Tid[TermTidX] != 4 || r5.Const != 16 {
		t.Errorf("R5 = %+v, want 4*tid.x + sym + 16", r5)
	}
	if c := r5.SymCoeff(Sym{Kind: SymCMem, Bank: 0, Off: 0x140}); c != 1 {
		t.Errorf("param coefficient = %d, want 1", c)
	}
	if r5.IsUniform() {
		t.Error("tid-derived value reported uniform")
	}
}

func TestValuesUniformity(t *testing.T) {
	// R2 = ctaid.x (CTA-uniform); R3 = tid.x; P0 = (R3 < R2): tid-dep,
	// non-uniform. P1 = (R2 < 5): uniform.
	k := testKernel(t, nil,
		sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRCtaidX)}),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(3)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(3), sass.R(2), sass.P(sass.PT)}),
		sass.New(sass.OpISETP, []sass.Operand{sass.P(1)}, []sass.Operand{sass.R(2), sass.Imm(5), sass.P(sass.PT)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	v := analyze(t, k)

	if !v.RegValue(2, 2).IsUniform() {
		t.Error("ctaid.x not uniform")
	}
	if v.RegValue(2, 3).IsUniform() {
		t.Error("tid.x reported uniform")
	}
	exit := 4
	if p0 := v.PredAt(exit, 0); p0.Uniform || !p0.TidDep {
		t.Errorf("P0 facts = %+v, want non-uniform tid-dep", p0)
	}
	if p1 := v.PredAt(exit, 1); !p1.Uniform || p1.TidDep {
		t.Errorf("P1 facts = %+v, want uniform non-tid-dep", p1)
	}
}

func TestValuesJoinAtMerge(t *testing.T) {
	// Diamond: both arms write R4; equal values survive the join, unequal
	// degrade to Unknown non-uniform (branch is tid-dependent).
	k := testKernel(t, map[string]int{"else": 5, "join": 6},
		sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRTidX)}),                    // 0
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(3), sass.P(sass.PT)}), // 1
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("else")}).WithGuard(sass.PredGuard{Reg: 0, Neg: true}), // 2
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Imm(7)}),                             // 3: then
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("join")}),                                              // 4
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Imm(9)}),                             // 5: else
		sass.New(sass.OpEXIT, nil, nil), // 6: join
	)
	v := analyze(t, k)
	r4 := v.RegValue(6, 4)
	if r4.Known || r4.IsUniform() {
		t.Errorf("R4 at join = %+v, want unknown non-uniform", r4)
	}
}

func TestValuesGuardedWrite(t *testing.T) {
	// A guarded redefinition joins with the incoming value: same constant
	// keeps it known; different constant under a non-uniform guard
	// degrades to unknown non-uniform.
	k := testKernel(t, nil,
		sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(3), sass.P(sass.PT)}),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Imm(7)}),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(5)}, []sass.Operand{sass.Imm(7)}),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Imm(7)}).WithGuard(sass.PredGuard{Reg: 0}), // same value
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(5)}, []sass.Operand{sass.Imm(9)}).WithGuard(sass.PredGuard{Reg: 0}), // different
		sass.New(sass.OpEXIT, nil, nil),
	)
	v := analyze(t, k)
	exit := 6
	if r4 := v.RegValue(exit, 4); !r4.Known || r4.Const != 7 {
		t.Errorf("R4 = %+v, want known 7 (guarded same-value write)", r4)
	}
	if r5 := v.RegValue(exit, 5); r5.Known || r5.IsUniform() {
		t.Errorf("R5 = %+v, want unknown non-uniform (guarded different write)", r5)
	}
}

func TestValuesLoopInductionNotStable(t *testing.T) {
	// R4 is an induction variable: must be Unknown at the loop body, never
	// a fabricated symbol a disjointness proof could cancel.
	k := testKernel(t, map[string]int{"head": 1, "done": 6},
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Imm(0)}),                              // 0
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(4), sass.Imm(64), sass.P(sass.PT)}), // 1: head
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("done")}).WithGuard(sass.PredGuard{Reg: 0, Neg: true}),  // 2
		sass.New(sass.OpIADD, []sass.Operand{sass.R(4)}, []sass.Operand{sass.R(4), sass.Imm(4)}),                    // 3: body
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("head")}),                                               // 4
		sass.New(sass.OpNOP, nil, nil),  // 5 (unreachable pad)
		sass.New(sass.OpEXIT, nil, nil), // 6: done
	)
	v := analyze(t, k)
	// At the loop head (after at least one back edge merge), R4 is 0 ⊔ 4k.
	if r4 := v.RegValue(1, 4); r4.Known {
		t.Errorf("induction variable known at loop head: %+v", r4)
	}
	// It is still warp-uniform: every lane runs the same trip count here.
	if r4 := v.RegValue(1, 4); !r4.IsUniform() {
		t.Errorf("loop counter lost uniformity: %+v", r4)
	}
}

func TestValuesWarpIDNotASymbol(t *testing.T) {
	// warpid is warp-uniform but thread-varying: it must never appear as a
	// cancellable symbol.
	k := testKernel(t, nil,
		sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRWarpID)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	v := analyze(t, k)
	r2 := v.RegValue(1, 2)
	if r2.Known {
		t.Errorf("warpid tracked as known form: %+v", r2)
	}
	if !r2.IsUniform() {
		t.Error("warpid should be warp-uniform")
	}
}

func val(c int64, tidX, tidY, lane int64) Value {
	v := Value{Known: true, Const: c}
	v.Tid[TermTidX] = tidX
	v.Tid[TermTidY] = tidY
	v.Tid[TermLane] = lane
	return v
}

func TestDisjointConstSeparation(t *testing.T) {
	if !DisjointAcrossThreads(val(0, 0, 0, 0), 4, val(64, 0, 0, 0), 4, BlockDims{}) {
		t.Error("constant offsets 0 and 64 (width 4) not proven disjoint")
	}
	if DisjointAcrossThreads(val(0, 0, 0, 0), 4, val(2, 0, 0, 0), 4, BlockDims{}) {
		t.Error("overlapping constants proven disjoint")
	}
}

func TestDisjointSymbolCancellation(t *testing.T) {
	s := Sym{Kind: SymCMem, Bank: 0, Off: 0x140}
	a := Value{Known: true, Syms: []SymTerm{{s, 1}}}
	b := Value{Known: true, Const: 1024, Syms: []SymTerm{{s, 1}}}
	if !DisjointAcrossThreads(a, 4, b, 4, BlockDims{}) {
		t.Error("sym+0 vs sym+1024 not proven disjoint")
	}
	// Mismatched coefficients must not cancel.
	c := Value{Known: true, Const: 1024, Syms: []SymTerm{{s, 2}}}
	if DisjointAcrossThreads(a, 4, c, 4, BlockDims{}) {
		t.Error("mismatched symbol coefficients proven disjoint")
	}
}

func TestDisjointIntervalSgemmTiles(t *testing.T) {
	// sgemm: myA = 4*(ty*16+tx) + offA, myB = same + offB with the two
	// tiles 1024 bytes apart. Interval test over a 16x16 block.
	dims := BlockDims{X: 16, Y: 16, Z: 1}
	a := val(0, 4, 64, 0)
	b := val(1024, 4, 64, 0)
	if !DisjointAcrossThreads(a, 4, b, 4, dims) {
		t.Error("tile A vs tile B not proven disjoint")
	}
	if !DisjointAcrossThreads(b, 4, a, 4, dims) {
		t.Error("tile B vs tile A not proven disjoint (asymmetric)")
	}
	// Without the hint the tid terms are unbounded: no proof.
	if DisjointAcrossThreads(a, 4, b, 4, BlockDims{}) {
		t.Error("proved disjoint without block-dim hint")
	}
}

func TestDisjointInjectivity(t *testing.T) {
	dims := BlockDims{X: 16, Y: 16, Z: 1}
	a := val(0, 4, 64, 0)
	// Same expression, distinct threads: 4tx+64ty is injective on 16x16
	// with stride >= width 4.
	if !DisjointAcrossThreads(a, 4, a, 4, dims) {
		t.Error("injective tile index not proven disjoint")
	}
	// Width 8 overlaps neighbouring elements.
	if DisjointAcrossThreads(a, 8, a, 8, dims) {
		t.Error("width-8 accesses on stride-4 index proven disjoint")
	}
	// A dimension with extent > 1 but coefficient 0 collides.
	b := val(0, 4, 0, 0)
	if DisjointAcrossThreads(b, 4, b, 4, dims) {
		t.Error("index ignoring tid.y proven disjoint on a 2-D block")
	}
	// ... but is fine when that dimension has extent 1.
	if !DisjointAcrossThreads(b, 4, b, 4, BlockDims{X: 16, Y: 1, Z: 1}) {
		t.Error("4*tid.x not proven disjoint on a 1-D block")
	}
	// Lane terms cannot distinguish threads (two threads share a lane).
	l := val(0, 0, 0, 4)
	if DisjointAcrossThreads(l, 4, l, 4, BlockDims{X: 64, Y: 1, Z: 1}) {
		t.Error("lane-based index proven disjoint across threads")
	}
}

func TestDisjointUnknownNeverProven(t *testing.T) {
	u := Value{}
	if DisjointAcrossThreads(u, 4, val(0, 0, 0, 0), 4, BlockDims{X: 16, Y: 1, Z: 1}) {
		t.Error("unknown value proven disjoint")
	}
}

func TestSingleThreadZero(t *testing.T) {
	d1 := BlockDims{X: 64, Y: 1, Z: 1}
	// tid.x - 0: exactly thread 0 satisfies it.
	if !SingleThreadZero(val(0, 1, 0, 0), d1) {
		t.Error("tid.x == 0 not proven single-thread")
	}
	// tid.x - 7 == 0 likewise selects one thread.
	if !SingleThreadZero(val(-7, 1, 0, 0), d1) {
		t.Error("tid.x == 7 not proven single-thread")
	}
	// 4*tx + 64*ty on a 16x16 block: injective, so at most one zero.
	if !SingleThreadZero(val(0, 4, 64, 0), BlockDims{X: 16, Y: 16, Z: 1}) {
		t.Error("injective 2-D form not proven single-thread")
	}
	// No tid term: the compare is thread-invariant, all-or-nothing.
	if SingleThreadZero(val(0, 0, 0, 0), d1) {
		t.Error("constant form proven single-thread")
	}
	// tid.x on a 2-D block ignores tid.y: a whole row satisfies it.
	if SingleThreadZero(val(0, 1, 0, 0), BlockDims{X: 16, Y: 16, Z: 1}) {
		t.Error("form ignoring tid.y proven single-thread on a 2-D block")
	}
	// Lane terms repeat across warps.
	if SingleThreadZero(val(0, 0, 0, 1), d1) {
		t.Error("lane-based form proven single-thread")
	}
	// Unknown dims or unknown value: no proof.
	if SingleThreadZero(val(0, 1, 0, 0), BlockDims{}) {
		t.Error("proved single-thread without block-dim hint")
	}
	if SingleThreadZero(Value{}, d1) {
		t.Error("unknown value proven single-thread")
	}
}

// TestValuesGuardRunAnyQueryOrder: inside a guard run (@P0 SHL; @P0 IADD;
// @P0 STS) a same-guard read sees the earlier same-guard def exactly, and
// an unguarded read the may-not-execute join — whichever way the queries
// jump around the block, and however view and non-view queries at one
// instruction interleave.
func TestValuesGuardRunAnyQueryOrder(t *testing.T) {
	p0 := sass.PredGuard{Reg: 0}
	k := testKernel(t, nil,
		sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRTidX)}),                    // 0
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(3), sass.P(sass.PT)}), // 1
		sass.New(sass.OpSHL, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(2)}).WithGuard(p0),      // 2
		sass.New(sass.OpIADD, []sass.Operand{sass.R(4)}, []sass.Operand{sass.R(3), sass.Imm(16)}).WithGuard(p0),    // 3
		sass.New(sass.OpSTS, nil, []sass.Operand{sass.Mem(4, 0), sass.R(2)}).WithGuard(p0),                         // 4
		sass.New(sass.OpIADD, []sass.Operand{sass.R(5)}, []sass.Operand{sass.R(4), sass.Imm(1)}),                   // 5: unguarded read
		sass.New(sass.OpEXIT, nil, nil), // 6
	)
	check := func(v *Valuation, idx int) {
		t.Helper()
		r4 := v.RegValue(idx, 4)
		_ = v.PredAt(idx, 0) // a non-view query in between must not disturb the view
		opd := v.OperandValue(idx, sass.R(4))
		switch idx {
		case 4: // same guard: the def at 3, exactly
			if !r4.Known || r4.Tid[TermTidX] != 4 || r4.Const != 16 || !EqualValues(r4, opd) {
				t.Errorf("R4 under @P0 at %d = %+v / %+v, want 4*tid.x+16", idx, r4, opd)
			}
			if u := v.Uniformity(idx); u.GuardUniform || u.SrcsUniform {
				t.Errorf("uniformity at %d = %+v, want neither", idx, u)
			}
		case 5: // unguarded: old garbage joined with the guarded def
			if r4.Known || opd.Known || r4.IsUniform() {
				t.Errorf("R4 unguarded at %d = %+v / %+v, want unknown non-uniform", idx, r4, opd)
			}
		case 3: // R4 not yet defined in the run
			if r4.Known {
				t.Errorf("R4 before its def = %+v, want unknown", r4)
			}
			if r3 := v.RegValue(idx, 3); !r3.Known || r3.Tid[TermTidX] != 4 {
				t.Errorf("R3 under @P0 at %d = %+v, want 4*tid.x", idx, r3)
			}
		}
	}
	for _, order := range [][]int{{3, 4, 5}, {5, 4, 3}, {4, 3, 4, 5, 4}, {5, 3, 5, 4, 4}} {
		v := analyze(t, k)
		for _, idx := range order {
			check(v, idx)
		}
	}
}
