package analysis

import (
	"testing"

	"sassi/internal/sass"
)

func TestBitsBasics(t *testing.T) {
	b := NewBits(200)
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(199)
	for _, i := range []int{0, 63, 64, 199} {
		if !b.Has(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Has(1) || b.Has(198) {
		t.Error("unset bits report set")
	}
	if got := b.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if got := b.Members(); len(got) != 4 || got[0] != 0 || got[3] != 199 {
		t.Errorf("Members = %v", got)
	}
	b.Clear(63)
	if b.Has(63) {
		t.Error("Clear failed")
	}

	o := NewBits(200)
	o.Set(5)
	if !b.Union(o) || !b.Has(5) {
		t.Error("Union failed")
	}
	if b.Union(o) {
		t.Error("Union reported change on a no-op")
	}

	full := NewBits(200)
	full.Fill(200)
	if full.Count() != 200 {
		t.Errorf("Fill(200).Count = %d", full.Count())
	}
	if full.Has(200) {
		t.Error("Fill set bits past n")
	}
	full.Intersect(b)
	if !full.Equal(b) {
		t.Error("Intersect with full-set lhs should equal rhs")
	}
	full.AndNot(b)
	if full.Count() != 0 {
		t.Error("AndNot of itself should empty the set")
	}

	var nilBits Bits
	if nilBits.Has(3) {
		t.Error("nil Bits must report no members")
	}
}

func TestRegSpaceNames(t *testing.T) {
	if got := RegSpaceName(GPRBit(5)); got != "R5" {
		t.Errorf("GPR name = %q", got)
	}
	if got := RegSpaceName(PredBit(3)); got != "P3" {
		t.Errorf("pred name = %q", got)
	}
	if got := RegSpaceName(CCBit()); got != "CC" {
		t.Errorf("CC name = %q", got)
	}
}

// diamondKernel is an if/else joining at a common block (plain branches,
// so the two arms are genuinely disjoint CFG paths):
//
//	0: ISETP P0, R2, 0
//	1: @!P0 BRA else
//	2: MOV32 R3, 1   (then)
//	3: BRA join
//	4: else: MOV32 R3, 2
//	5: join: IADD R4, R3, 0
//	6: EXIT
func diamondKernel(t *testing.T) *sass.Kernel {
	return testKernel(t, map[string]int{"else": 4, "join": 5},
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(0), sass.P(sass.PT)}),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("else")}).WithGuard(sass.PredGuard{Reg: 0, Neg: true}),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(3)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("join")}),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(3)}, []sass.Operand{sass.Imm(2)}),
		sass.New(sass.OpIADD, []sass.Operand{sass.R(4)}, []sass.Operand{sass.R(3), sass.Imm(0)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
}

func TestDominatorsDiamond(t *testing.T) {
	k := diamondKernel(t)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	dom := Dominators(cfg)

	entry := cfg.BlockOf(0).ID
	thenB := cfg.BlockOf(2).ID
	elseB := cfg.BlockOf(4).ID
	join := cfg.BlockOf(5).ID

	for _, b := range cfg.Blocks {
		if !Dominates(dom, entry, b.ID) {
			t.Errorf("entry does not dominate block %d", b.ID)
		}
		if !Dominates(dom, b.ID, b.ID) {
			t.Errorf("block %d does not dominate itself", b.ID)
		}
	}
	if Dominates(dom, thenB, join) {
		t.Error("then-arm must not dominate the join block")
	}
	if Dominates(dom, elseB, join) {
		t.Error("else-arm must not dominate the join block")
	}
	if Dominates(dom, thenB, elseB) || Dominates(dom, elseB, thenB) {
		t.Error("sibling arms must not dominate each other")
	}
}

func TestReachingDefsKill(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}),           // 0
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(2)}),           // 1: kills 0
		sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(0)}), // 2
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	ri := ReachingDefs(cfg)
	got := ri.ReachingAt(2, GPRBit(2))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("ReachingAt(2, R2) = %v, want [1]", got)
	}
}

func TestReachingDefsGuardedDefDoesNotKill(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}),                                   // 0
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(2)}).WithGuard(sass.PredGuard{Reg: 0}), // 1
		sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(0)}),                         // 2
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	ri := ReachingDefs(cfg)
	got := ri.ReachingAt(2, GPRBit(2))
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ReachingAt(2, R2) = %v, want [0 1]", got)
	}
}

func TestReachingDefsAcrossDiamond(t *testing.T) {
	k := diamondKernel(t)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	ri := ReachingDefs(cfg)
	// Both arms' writes of R3 (instrs 2 and 4) reach the join point at
	// instruction 5.
	got := ri.ReachingAt(5, GPRBit(3))
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("ReachingAt(5, R3) = %v, want [2 4]", got)
	}
}

func TestMaybeUninitReadsMergeFlag(t *testing.T) {
	// R5 written once unconditionally, then merged under a never-before
	// assigned predicate path: only the genuine source read of R6 and the
	// guarded merge of R7 should be reported, with Merge set accordingly.
	k := testKernel(t, nil,
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(6), sass.Imm(0)}),                         // 0: R6 uninit read
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(0), sass.P(sass.PT)}),       // 1
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(7)}, []sass.Operand{sass.Imm(1)}).WithGuard(sass.PredGuard{Reg: 0}), // 2: guarded first write of R7 — no merge use (never assigned before)
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	reads := MaybeUninitReads(cfg)
	var sawR6 bool
	for _, r := range reads {
		switch {
		case r.Reg == GPRBit(6) && r.Instr == 0:
			sawR6 = true
			if r.Merge {
				t.Error("R6 is a genuine source read, not a merge")
			}
		case r.Reg == GPRBit(7):
			t.Error("R7's guarded first write merged nothing (never assigned) and must not be reported")
		}
	}
	if !sawR6 {
		t.Errorf("uninitialized R6 read not reported: %v", reads)
	}
}

// TestDefAssignR255DoesNotAssignP0: a 64-bit load into R254 writes R254
// and R255, and regspace bit 255 is P0. Nothing writes P0 here, so its
// read as a guard must still be reported — R255 names no register and has
// no bit of its own.
func TestDefAssignR255DoesNotAssignP0(t *testing.T) {
	ld := sass.New(sass.OpLDG, []sass.Operand{sass.R(254)}, []sass.Operand{sass.Mem(sass.SP, 0)})
	ld.Mods.Width = sass.W64
	k := testKernel(t, nil,
		ld, // 0: writes R254, R255
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}).WithGuard(sass.PredGuard{Reg: 0}), // 1: reads P0
		sass.New(sass.OpST, nil, []sass.Operand{sass.Mem(sass.SP, 0), sass.R(2)}),                                        // 2
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	var sawP0 bool
	for _, r := range MaybeUninitReads(cfg) {
		if r.Instr == 1 && r.Reg == PredBit(0) {
			sawP0 = true
		}
	}
	if !sawP0 {
		t.Errorf("read of P0, which nothing wrote, not reported: %v", MaybeUninitReads(cfg))
	}
	if li := Liveness(cfg); !li.PredLiveIn[0].Has(0) {
		t.Errorf("P0 is read at 1 and written nowhere: it must be live at 0, got %v", li.PredLiveIn[0].Preds())
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	k := diamondKernel(t)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	pdom := PostDominators(cfg)

	entry := cfg.BlockOf(0).ID
	thenB := cfg.BlockOf(2).ID
	elseB := cfg.BlockOf(4).ID
	join := cfg.BlockOf(5).ID

	for _, b := range cfg.Blocks {
		if !PostDominates(pdom, join, b.ID) {
			t.Errorf("join does not post-dominate block %d", b.ID)
		}
		if !PostDominates(pdom, b.ID, b.ID) {
			t.Errorf("block %d does not post-dominate itself", b.ID)
		}
	}
	if PostDominates(pdom, thenB, entry) {
		t.Error("then-arm must not post-dominate the entry")
	}
	if PostDominates(pdom, elseB, entry) {
		t.Error("else-arm must not post-dominate the entry")
	}
	if PostDominates(pdom, thenB, elseB) || PostDominates(pdom, elseB, thenB) {
		t.Error("sibling arms must not post-dominate each other")
	}
	if PostDominates(pdom, entry, join) {
		t.Error("entry must not post-dominate the join block")
	}
}

// TestPostDominatorsMultiExit checks the virtual-exit handling: with two
// EXIT blocks, neither exit post-dominates the branch above them, and the
// branch block post-dominates only itself and the entry path.
//
//	0: ISETP P0, R2, 0
//	1: @!P0 BRA alt
//	2: EXIT           (exit A)
//	3: alt: EXIT      (exit B)
func TestPostDominatorsMultiExit(t *testing.T) {
	k := testKernel(t, map[string]int{"alt": 3},
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(0), sass.P(sass.PT)}),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("alt")}).WithGuard(sass.PredGuard{Reg: 0, Neg: true}),
		sass.New(sass.OpEXIT, nil, nil),
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	pdom := PostDominators(cfg)
	entry := cfg.BlockOf(0).ID
	exitA := cfg.BlockOf(2).ID
	exitB := cfg.BlockOf(3).ID
	if PostDominates(pdom, exitA, entry) || PostDominates(pdom, exitB, entry) {
		t.Error("no single exit may post-dominate the branch block")
	}
	if !PostDominates(pdom, entry, entry) {
		t.Error("entry must post-dominate itself")
	}
	if got := pdom[exitA].Members(); len(got) != 1 || got[0] != exitA {
		t.Errorf("exit A post-dominators = %v, want only itself", got)
	}
}

// TestPostDominatorsLinear: in a straight-line kernel every later block
// post-dominates every earlier one.
func TestPostDominatorsLinear(t *testing.T) {
	k := testKernel(t, map[string]int{"mid": 2},
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("mid")}),
		sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(1)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	pdom := PostDominators(cfg)
	for _, a := range cfg.Blocks {
		for _, b := range cfg.Blocks {
			if a.Start >= b.Start {
				if !PostDominates(pdom, a.ID, b.ID) {
					t.Errorf("block %d should post-dominate block %d", a.ID, b.ID)
				}
			}
		}
	}
}
