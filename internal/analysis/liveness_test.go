package analysis_test

import (
	"fmt"
	"slices"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/difftest"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// livenessOf computes liveness for a hand-built kernel.
func livenessOf(t *testing.T, k *sass.Kernel) *analysis.LiveInfo {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Liveness(cfg)
}

func withMods(in sass.Instruction, m sass.Mods) sass.Instruction {
	in.Mods = m
	return in
}

func TestLivenessStraightLine(t *testing.T) {
	// R2 = R0+R1; R3 = R2+R0; EXIT  (R3 dead, R0 live until idx 1)
	k := kern(t, nil,
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(0), sass.R(1)}),
		sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.R(0)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	li := livenessOf(t, k)
	gprs := li.LiveIn[0].Regs()
	if !slices.Contains(gprs, 0) || !slices.Contains(gprs, 1) {
		t.Errorf("live at 0 = %v, want R0,R1", gprs)
	}
	if slices.Contains(gprs, 2) || slices.Contains(gprs, 3) {
		t.Errorf("live at 0 = %v: dead values reported live", gprs)
	}
	gprs1 := li.LiveIn[1].Regs()
	if !slices.Contains(gprs1, 2) || !slices.Contains(gprs1, 0) || slices.Contains(gprs1, 1) {
		t.Errorf("live at 1 = %v, want R0,R2", gprs1)
	}
	if gprs2 := li.LiveIn[2].Regs(); len(gprs2) != 0 {
		t.Errorf("live at EXIT = %v, want none", gprs2)
	}
}

func TestLivenessAcrossLoop(t *testing.T) {
	// R5 defined before the loop and used inside it must stay live across
	// the backedge.
	k := kern(t, map[string]int{"head": 1, "sync": 4, "exit": 5},
		mov(5, 7), // 0
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(5), sass.Imm(10), sass.P(sass.PT)}), // 1 head (uses R5)
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("sync")}).WithGuard(sass.PredGuard{Reg: 0, Neg: true}),  // 2
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("head")}),                                               // 3 backedge
		sass.New(sass.OpSYNC, nil, nil), // 4
		sass.New(sass.OpEXIT, nil, nil), // 5
	)
	li := livenessOf(t, k)
	for i := 1; i <= 3; i++ {
		if !li.LiveIn[i].Has(5) {
			t.Errorf("R5 not live at %d (loop-carried)", i)
		}
	}
}

func TestLivenessPredicatedDefDoesNotKill(t *testing.T) {
	// @P0 MOV R2, 1 is a partial def: R2's old value may survive, so R2
	// must be treated as live before the predicated write if used after.
	k := kern(t, nil,
		mov(2, 0), // 0
		mov(2, 1).WithGuard(sass.PredGuard{Reg: 0}),                                              // 1
		sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(0)}), // 2
		sass.New(sass.OpEXIT, nil, nil),
	)
	li := livenessOf(t, k)
	if !li.LiveIn[1].Has(2) {
		t.Errorf("R2 must be live across its own partial def; live=%v", li.LiveIn[1].Regs())
	}
}

func TestLivenessPredicates(t *testing.T) {
	k := kern(t, nil,
		sass.New(sass.OpISETP, []sass.Operand{sass.P(1)}, []sass.Operand{sass.R(0), sass.Imm(1), sass.P(sass.PT)}),                 // 0 def P1
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(0), sass.Imm(1)}).WithGuard(sass.PredGuard{Reg: 1}), // 1 use P1
		sass.New(sass.OpEXIT, nil, nil),
	)
	li := livenessOf(t, k)
	if li.PredLiveIn[0].Has(1) {
		t.Errorf("P1 live before its def: %v", li.PredLiveIn[0].Preds())
	}
	if !li.PredLiveIn[1].Has(1) {
		t.Errorf("P1 not live at its use: %v", li.PredLiveIn[1].Preds())
	}
}

func TestLivenessCC(t *testing.T) {
	k := kern(t, nil,
		withMods(sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(0), sass.R(1)}), sass.Mods{SetCC: true}), // 0
		withMods(sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(0), sass.R(1)}), sass.Mods{X: true}),     // 1 uses CC
		sass.New(sass.OpEXIT, nil, nil),
	)
	li := livenessOf(t, k)
	if li.CCLiveIn[0] {
		t.Error("CC live before its def")
	}
	if !li.CCLiveIn[1] {
		t.Error("CC not live between .CC and .X")
	}
}

// A guarded EXIT only retires the lanes whose guard passes; the rest fall
// through. The CFG must model that edge, or values read after the EXIT
// appear dead at instrumentation sites before it and get clobbered.
func TestGuardedExitFallsThrough(t *testing.T) {
	k := kern(t, nil,
		sass.New(sass.OpEXIT, nil, nil).WithGuard(sass.PredGuard{Reg: 0}),                        // 0: @P0 EXIT
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(3), sass.Imm(1)}), // 1: reads R3
		sass.New(sass.OpEXIT, nil, nil),                                                          // 2
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range cfg.BlockOf(0).Succs {
		if cfg.Blocks[s].Start == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("guarded EXIT block has no fallthrough successor")
	}
	if li := analysis.Liveness(cfg); !li.LiveIn[0].Has(3) {
		t.Error("R3 is read past the guarded EXIT and must be live at entry")
	}
}

// An unconditional EXIT really terminates: no fallthrough edge, nothing
// past it live.
func TestUnconditionalExitTerminates(t *testing.T) {
	k := kern(t, nil,
		sass.New(sass.OpEXIT, nil, nil), // 0
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(3), sass.Imm(1)}), // 1: unreachable
		sass.New(sass.OpEXIT, nil, nil), // 2
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cfg.BlockOf(0).Succs); n != 0 {
		t.Fatalf("unconditional EXIT block has %d successors, want 0", n)
	}
	if li := analysis.Liveness(cfg); li.LiveIn[0].Has(3) {
		t.Error("R3 is only read in unreachable code; it must not be live at entry")
	}
}

// A register whose first write is predicated merges the old value only if
// the register may have been assigned on some path. An if-converted
// temporary must therefore NOT be live back to kernel entry — otherwise
// every instrumentation site before it would pointlessly spill garbage.
func TestPredicatedFirstWriteNotLiveAtEntry(t *testing.T) {
	setp := sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(0), sass.P(sass.PT)})
	k := kern(t, nil,
		setp, // 0
		mov(5, 1).WithGuard(sass.PredGuard{Reg: 0}), // 1: first write of R5, guarded
		sass.New(sass.OpEXIT, nil, nil),             // 2
	)
	if li := livenessOf(t, k); li.LiveIn[0].Has(5) {
		t.Error("R5's first write is the predicated MOV; it must not be live at entry")
	}

	// Contrast: once R5 may have been assigned, a predicated write does
	// merge the old value and keeps it live.
	k2 := kern(t, nil,
		setp,      // 0
		mov(5, 9), // 1: unconditional write
		mov(5, 1).WithGuard(sass.PredGuard{Reg: 0}),                         // 2: merge
		sass.New(sass.OpST, nil, []sass.Operand{sass.Mem(3, 0), sass.R(5)}), // 3
		sass.New(sass.OpEXIT, nil, nil),
	)
	if li2 := livenessOf(t, k2); !li2.LiveIn[2].Has(5) {
		t.Error("R5 assigned at 1 and merged at 2: it must be live between them")
	}
}

// TestLivenessMatchesModel holds Liveness to the implementation it
// replaced, kept in liveness_model_test.go: identical GPR, predicate and
// CC live-in sets at every instruction of every workload and mutant —
// plain, scheduled and under each shipped instrumentation — and of
// generated difftest programs.
func TestLivenessMatchesModel(t *testing.T) {
	ctx := cuda.NewContext(sim.KeplerK10())
	tools := map[string]sassi.Options{"errorinj": handlers.NewInjProfiler(ctx, 1).Options()}
	for _, t := range handlers.Tools() {
		tools[t.Name] = t.New(ctx).Options()
	}
	check := func(t *testing.T, what string, prog *sass.Program) {
		t.Helper()
		for _, k := range prog.Kernels {
			cfg, err := sass.BuildCFG(k)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if d := analysis.LivenessMismatch(cfg); d != "" {
				t.Errorf("%s: %s", what, d)
			}
		}
	}
	var specs []*workloads.Spec
	for _, name := range workloads.Names() {
		s, _ := workloads.Get(name)
		specs = append(specs, s)
	}
	for _, name := range workloads.MutantNames() {
		s, _ := workloads.GetMutant(name)
		specs = append(specs, s)
	}
	off := ptxas.Options{Verify: analysis.VerifyOff}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			compile := func(opts ptxas.Options) *sass.Program {
				prog, err := spec.Compile(opts)
				if err != nil {
					t.Fatal(err)
				}
				return prog
			}
			check(t, "plain", compile(off))
			check(t, "scheduled", compile(ptxas.Options{Schedule: true, Verify: analysis.VerifyOff}))
			for tool, opts := range tools {
				prog := compile(off)
				opts.Verify = analysis.VerifyOff
				if err := sassi.Instrument(prog, opts); err != nil {
					t.Fatalf("instrument %s: %v", tool, err)
				}
				check(t, tool, prog)
			}
		})
	}
	t.Run("difftest", func(t *testing.T) {
		t.Parallel()
		for seed := uint64(1); seed <= 300; seed++ {
			m, err := difftest.Generate(seed, difftest.DefaultSize()).Build()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			prog, err := ptxas.Compile(m, off)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			check(t, fmt.Sprintf("seed %d", seed), prog)
		}
	})
}
