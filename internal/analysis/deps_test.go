package analysis_test

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/difftest"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
)

func testKernel(t *testing.T, dims [3]int, labels map[string]int, instrs ...sass.Instruction) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{Name: "t", Instrs: instrs, Labels: labels,
		NumRegs: 16, NumPreds: 7, SharedBytes: 4096, BlockDim: dims}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

func buildGraph(t *testing.T, k *sass.Kernel) *analysis.Graph {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.BuildDeps(analysis.NewKernelFacts(cfg))
}

// findEdge locates an edge (from, to) anywhere in the block DAGs.
func findEdge(g *analysis.Graph, from, to int) (analysis.Edge, bool) {
	for _, bd := range g.Blocks {
		for _, e := range bd.Edges {
			if e.From == from && e.To == to {
				return e, true
			}
		}
	}
	return analysis.Edge{}, false
}

func wantEdge(t *testing.T, g *analysis.Graph, from, to int, kind analysis.EdgeKind) analysis.Edge {
	t.Helper()
	e, ok := findEdge(g, from, to)
	if !ok {
		t.Fatalf("no edge %d -> %d (want %s)", from, to, kind)
	}
	if e.Kind != kind {
		t.Fatalf("edge %d -> %d is %s, want %s", from, to, e.Kind, kind)
	}
	return e
}

func wantNoEdge(t *testing.T, g *analysis.Graph, from, to int) {
	t.Helper()
	if e, ok := findEdge(g, from, to); ok {
		t.Fatalf("unexpected %s edge %d -> %d", e.Kind, from, to)
	}
}

// Assembly shorthands.

func tidx(r uint8) sass.Instruction {
	return sass.New(sass.OpS2R, []sass.Operand{sass.R(r)}, []sass.Operand{sass.SReg(sass.SRTidX)})
}

func movi(d uint8, v int64) sass.Instruction {
	return sass.New(sass.OpMOV, []sass.Operand{sass.R(d)}, []sass.Operand{sass.Imm(v)})
}

func iadd(d, a, b uint8) sass.Instruction {
	return sass.New(sass.OpIADD, []sass.Operand{sass.R(d)}, []sass.Operand{sass.R(a), sass.R(b)})
}

func shl(d, a uint8, sh int64) sass.Instruction {
	return sass.New(sass.OpSHL, []sass.Operand{sass.R(d)}, []sass.Operand{sass.R(a), sass.Imm(sh)})
}

func setp(p uint8, a, b sass.Operand) sass.Instruction {
	return sass.Instruction{Guard: sass.Always, Op: sass.OpISETP,
		Mods: sass.Mods{Cmp: sass.CmpLT, Unsigned: true, Logic: sass.LogicAND},
		Dsts: []sass.Operand{sass.P(p)},
		Srcs: []sass.Operand{a, b, sass.P(sass.PT)}}
}

func guarded(in sass.Instruction, p uint8) sass.Instruction {
	in.Guard = sass.PredGuard{Reg: p}
	return in
}

func sts(base uint8, off int64, data uint8) sass.Instruction {
	return sass.New(sass.OpSTS, nil, []sass.Operand{sass.Mem(base, off), sass.R(data)})
}

func lds(d, base uint8, off int64) sass.Instruction {
	return sass.New(sass.OpLDS, []sass.Operand{sass.R(d)}, []sass.Operand{sass.Mem(base, off)})
}

func stl(base uint8, off int64, data uint8) sass.Instruction {
	return sass.New(sass.OpSTL, nil, []sass.Operand{sass.Mem(base, off), sass.R(data)})
}

func ldl(d, base uint8, off int64) sass.Instruction {
	return sass.New(sass.OpLDL, []sass.Operand{sass.R(d)}, []sass.Operand{sass.Mem(base, off)})
}

func bar() sass.Instruction { return sass.New(sass.OpBAR, nil, nil) }

func exit() sass.Instruction { return sass.New(sass.OpEXIT, nil, nil) }

func TestEdgeRegisterClasses(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),    // 0: def R0
		iadd(1, 0, 0), // 1: use R0, def R1       — RAW on R0 from 0
		movi(0, 2),    // 2: redef R0             — WAR from 1, WAW from 0
		exit(),
	)
	g := buildGraph(t, k)
	e := wantEdge(t, g, 0, 1, analysis.RAW)
	if e.Slot != analysis.GPRBit(0) {
		t.Errorf("RAW slot = %s, want R0", analysis.RegSpaceName(e.Slot))
	}
	wantEdge(t, g, 1, 2, analysis.WAR)
	wantEdge(t, g, 0, 2, analysis.WAW)
	// Independent instructions stay unordered: movi R0 at 0 and def R1 at 1
	// conflict, but nothing orders 1 (def R1) against... use a clean pair:
	k2 := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),
		movi(1, 2),
		exit(),
	)
	wantNoEdge(t, buildGraph(t, k2), 0, 1)
}

func TestEdgePredicate(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 5),                       // 0
		setp(0, sass.R(0), sass.Imm(10)), // 1: def P0
		guarded(movi(1, 7), 0),           // 2: @P0 — reads P0
		setp(0, sass.R(0), sass.Imm(20)), // 3: redef P0 — WAR vs 2, WAW vs 1
		exit(),
	)
	g := buildGraph(t, k)
	e := wantEdge(t, g, 1, 2, analysis.RAW)
	if e.Slot != analysis.PredBit(0) {
		t.Errorf("guard RAW slot = %s, want P0", analysis.RegSpaceName(e.Slot))
	}
	wantEdge(t, g, 2, 3, analysis.WAR)
	wantEdge(t, g, 1, 3, analysis.WAW)
}

func TestEdgeCC(t *testing.T) {
	setcc := iadd(1, 0, 0)
	setcc.Mods.SetCC = true
	usecc := iadd(2, 0, 0)
	usecc.Mods.X = true
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1), // 0
		setcc,      // 1: defs CC (and R1)
		usecc,      // 2: uses CC (IADD.X)
		exit(),
	)
	e := wantEdge(t, buildGraph(t, k), 1, 2, analysis.RAW)
	if e.Slot != analysis.CCBit() {
		t.Errorf("CC RAW slot = %s, want CC", analysis.RegSpaceName(e.Slot))
	}
}

func TestEdgeMemSharedAliasAndDisjoint(t *testing.T) {
	// Same shared cell written twice: WAW through memory.
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		tidx(0),
		shl(1, 0, 2), // R1 = 4*tid
		sts(1, 0, 0), // 2: shared[4t] = ...
		sts(1, 0, 0), // 3: same cell
		exit(),
	)
	wantEdge(t, buildGraph(t, k), 2, 3, analysis.Mem)

	// Stores 128 bytes apart with tid stride 4 over a 32-thread block:
	// disjoint for every thread pair (same and cross), so no edge.
	k2 := testKernel(t, [3]int{32, 1, 1}, nil,
		tidx(0),
		shl(1, 0, 2),
		sts(1, 0, 0),   // 2: shared[4t]       t in [0,32) -> [0,124]
		sts(1, 128, 0), // 3: shared[4t+128]            -> [128,252]
		exit(),
	)
	wantNoEdge(t, buildGraph(t, k2), 2, 3)

	// Same offsets but an unknown base defeats the prover: edge stays.
	k3 := testKernel(t, [3]int{32, 1, 1}, nil,
		lds(1, 9, 0), // R1 = unknown
		sts(1, 0, 0),
		sts(1, 128, 0),
		exit(),
	)
	wantEdge(t, buildGraph(t, k3), 1, 2, analysis.Mem)
}

func TestEdgeMemLocalPerThread(t *testing.T) {
	// Local windows are per-thread: a constant address never aliases
	// across threads, so only same-thread overlap matters.
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 7),
		movi(1, 0),
		stl(1, 0, 0), // 2: local[0]
		ldl(2, 1, 4), // 3: local[4] — same-thread disjoint
		exit(),
	)
	g := buildGraph(t, k)
	wantNoEdge(t, g, 2, 3)

	// The identical constant-address pattern in SHARED memory aliases
	// across threads (every thread hits shared[0]): edge required.
	k2 := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 7),
		movi(1, 0),
		sts(1, 0, 0),
		lds(2, 1, 4), // cross-thread: write[0..3] vs read[4..7]... disjoint!
		exit(),
	)
	// shared[0] write vs shared[4] read are constant-disjoint too — but
	// shared[0] write vs shared[0] read must conflict:
	k3 := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 7),
		movi(1, 0),
		sts(1, 0, 0),
		lds(2, 1, 0),
		exit(),
	)
	wantNoEdge(t, buildGraph(t, k2), 2, 3)
	wantEdge(t, buildGraph(t, k3), 2, 3, analysis.Mem)

	// Overlapping local accesses conflict in the same thread.
	k4 := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 7),
		movi(1, 0),
		stl(1, 0, 0),
		ldl(2, 1, 0),
		exit(),
	)
	wantEdge(t, buildGraph(t, k4), 2, 3, analysis.Mem)
}

func TestEdgeFence(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1), // 0
		bar(),      // 1: fence
		movi(1, 2), // 2
		exit(),
	)
	g := buildGraph(t, k)
	wantEdge(t, g, 0, 1, analysis.Fence)
	wantEdge(t, g, 1, 2, analysis.Fence)

	// Injected instrumentation is a fence even when register-independent.
	inj := movi(1, 2)
	inj.Injected = true
	k2 := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),
		inj,
		exit(),
	)
	wantEdge(t, buildGraph(t, k2), 0, 1, analysis.Fence)

	// S2R SR_CLOCK observes the cycle counter: fence. SR_TID does not.
	clock := sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRClock)})
	k3 := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),
		clock,
		exit(),
	)
	wantEdge(t, buildGraph(t, k3), 0, 1, analysis.Fence)
	k4 := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),
		tidx(2),
		exit(),
	)
	wantNoEdge(t, buildGraph(t, k4), 0, 1)

	// Atomics order against everything: they are the sanctioned cross-warp
	// communication and must not migrate.
	atom := sass.New(sass.OpATOMS, []sass.Operand{sass.R(3)},
		[]sass.Operand{sass.Mem(1, 0), sass.R(0)})
	k5 := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),
		movi(1, 0),
		atom,
		movi(2, 9),
		exit(),
	)
	g5 := buildGraph(t, k5)
	wantEdge(t, g5, 1, 2, analysis.Fence)
	wantEdge(t, g5, 2, 3, analysis.Fence)
}

// Every RAW edge must be witnessed by reaching definitions: either the
// def reaches the use directly, or an intervening redefinition kills it —
// in which case the DAG orders def -> killer -> use transitively. Checked
// over handcrafted kernels and a sweep of generated, fully compiled ones.
func TestRAWEdgesWitnessedByReachingDefs(t *testing.T) {
	check := func(t *testing.T, k *sass.Kernel) {
		cfg, err := sass.BuildCFG(k)
		if err != nil {
			t.Fatal(err)
		}
		g := analysis.BuildDeps(analysis.NewKernelFacts(cfg))
		ri := analysis.ReachingDefs(cfg)
		for _, bd := range g.Blocks {
			edges := map[[2]int]bool{}
			for _, e := range bd.Edges {
				edges[[2]int{e.From, e.To}] = true
			}
			for _, e := range bd.Edges {
				if e.From >= e.To {
					t.Fatalf("%s: edge %d -> %d not forward", k.Name, e.From, e.To)
				}
				if e.Kind != analysis.RAW {
					continue
				}
				direct := false
				for _, d := range ri.ReachingAt(e.To, e.Slot) {
					if d == e.From {
						direct = true
					}
				}
				if direct {
					continue
				}
				// Killed in between: some w in (From, To) redefines the slot
				// and the DAG must order From -> w -> To.
				witnessed := false
				for w := e.From + 1; w < e.To; w++ {
					_, wdefs := instrRegSets(&k.Instrs[w])
					if wdefs.Has(e.Slot) && edges[[2]int{e.From, w}] && edges[[2]int{w, e.To}] {
						witnessed = true
						break
					}
				}
				if !witnessed {
					t.Errorf("%s: RAW edge %d -> %d (%s) not witnessed by reaching defs",
						k.Name, e.From, e.To, analysis.RegSpaceName(e.Slot))
				}
			}
		}
	}

	// Handcrafted: a redefinition between def and use.
	check(t, testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),
		movi(0, 2),
		iadd(1, 0, 0),
		exit(),
	))

	// Generated programs through the full compiler.
	for seed := uint64(1); seed <= 25; seed++ {
		p := difftest.Generate(seed, difftest.FuzzSize())
		m, err := p.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := ptxas.Compile(m, ptxas.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, k := range prog.Kernels {
			check(t, k)
		}
	}
}

// instrRegSets mirrors the package's regspace def extraction for the
// witness search (exported behaviour only: GPR/pred/CC writes).
func instrRegSets(in *sass.Instruction) (uses, defs analysis.Bits) {
	uses, defs = analysis.NewBits(analysis.CCBit()+1), analysis.NewBits(analysis.CCBit()+1)
	for _, r := range in.GPRSrcs() {
		uses.Set(analysis.GPRBit(r))
	}
	for _, p := range in.AppendPredSrcs(nil) {
		uses.Set(analysis.PredBit(p))
	}
	if in.Mods.X {
		uses.Set(analysis.CCBit())
	}
	for _, r := range in.GPRDsts() {
		defs.Set(analysis.GPRBit(r))
	}
	for _, p := range in.PredDsts() {
		defs.Set(analysis.PredBit(p))
	}
	if in.Mods.SetCC {
		defs.Set(analysis.CCBit())
	}
	return uses, defs
}
