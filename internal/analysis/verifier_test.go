package analysis

import (
	"slices"
	"strings"
	"testing"

	"sassi/internal/sass"
)

// testKernel builds a resolved kernel for checker tests, mirroring the
// buildKernel helper of the sass package tests.
func testKernel(t *testing.T, labels map[string]int, instrs ...sass.Instruction) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{Name: "t", Instrs: instrs, Labels: labels, NumRegs: 16, NumPreds: 7}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

// findDiag returns the first diagnostic of the given check class whose
// message contains substr.
func findDiag(diags []Diagnostic, check, substr string) (Diagnostic, bool) {
	for _, d := range diags {
		if d.Check == check && strings.Contains(d.Msg, substr) {
			return d, true
		}
	}
	return Diagnostic{}, false
}

func wantError(t *testing.T, diags []Diagnostic, check, substr string) {
	t.Helper()
	d, ok := findDiag(diags, check, substr)
	if !ok {
		t.Fatalf("no %s diagnostic containing %q in %v", check, substr, diags)
	}
	if d.Sev != Error {
		t.Fatalf("%v: want error severity", d)
	}
}

func wantClean(t *testing.T, diags []Diagnostic) {
	t.Helper()
	for _, d := range Errors(diags) {
		t.Errorf("unexpected error: %v", d)
	}
}

func TestVerifyKernelCleanKernel(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(7)}),
		sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(1)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	wantClean(t, VerifyKernel(k))
}

func TestStructuralBadBranchTarget(t *testing.T) {
	k := testKernel(t, map[string]int{"far": 99},
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("far")}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	wantError(t, CheckStructure(k), CheckStructural, "past the kernel end")
}

func TestStructuralUnresolvedLabel(t *testing.T) {
	// Bypass ResolveLabels: the operand keeps Imm=-1 as a decoder would
	// leave a dangling target.
	k := &sass.Kernel{Name: "t", NumRegs: 4, Instrs: []sass.Instruction{
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("nowhere")}),
		sass.New(sass.OpEXIT, nil, nil),
	}}
	wantError(t, CheckStructure(k), CheckStructural, "unresolved")
}

func TestStructuralFallsOffEnd(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpEXIT, nil, nil).WithGuard(sass.PredGuard{Reg: 0}),
	)
	wantError(t, CheckStructure(k), CheckStructural, "fall off the kernel end")
}

func TestStructuralNoExit(t *testing.T) {
	k := testKernel(t, map[string]int{"top": 0},
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("top")}),
	)
	wantError(t, CheckStructure(k), CheckStructural, "no EXIT")
}

func TestStructuralRegisterOverAllocation(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(20)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	k.NumRegs = 4
	wantError(t, CheckStructure(k), CheckStructural, "exceeds the kernel's register allocation")
}

func TestStructuralDiscardedResultWarns(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpIADD, []sass.Operand{sass.R(sass.RZ)}, []sass.Operand{sass.Imm(1), sass.Imm(2)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	d, ok := findDiag(CheckStructure(k), CheckStructural, "discarded")
	if !ok || d.Sev != Warning {
		t.Fatalf("want discarded-result warning, got %v", CheckStructure(k))
	}
}

func TestDivergenceSyncOnEmptyStack(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpSYNC, nil, nil),
		sass.New(sass.OpEXIT, nil, nil),
	)
	wantError(t, CheckDivergenceStack(k), CheckDivergence, "empty divergence stack")
}

func TestDivergenceBalancedDiamondClean(t *testing.T) {
	k := testKernel(t, map[string]int{"else": 3, "reconv": 4},
		sass.New(sass.OpSSY, nil, []sass.Operand{sass.Label("reconv")}),                            // 0
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("else")}).WithGuard(sass.PredGuard{Reg: 0, Neg: true}), // 1
		sass.New(sass.OpSYNC, nil, nil), // 2: then arm
		sass.New(sass.OpSYNC, nil, nil), // 3: else arm
		sass.New(sass.OpEXIT, nil, nil), // 4: reconv
	)
	wantClean(t, CheckDivergenceStack(k))
}

func TestDivergenceUnbalancedSSY(t *testing.T) {
	// The SYNC on the else arm is missing: the path through "else" reaches
	// EXIT with a leftover entry (fine), but the fall-through path past the
	// reconvergence point SYNCs twice — the second pop finds an empty stack.
	k := testKernel(t, map[string]int{"reconv": 2},
		sass.New(sass.OpSSY, nil, []sass.Operand{sass.Label("reconv")}), // 0
		sass.New(sass.OpSYNC, nil, nil),                                 // 1
		sass.New(sass.OpSYNC, nil, nil),                                 // 2: reconv — stack now empty
		sass.New(sass.OpEXIT, nil, nil),                                 // 3
	)
	wantError(t, CheckDivergenceStack(k), CheckDivergence, "empty divergence stack")
}

func TestDivergenceRetOnEmptyCallStack(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpRET, nil, nil),
		sass.New(sass.OpEXIT, nil, nil),
	)
	wantError(t, CheckDivergenceStack(k), CheckDivergence, "empty call stack")
}

func TestDivergenceUnboundedRecursion(t *testing.T) {
	k := testKernel(t, map[string]int{"rec": 0},
		sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("rec")}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	wantError(t, CheckDivergenceStack(k), CheckDivergence, "call stack exceeds depth")
}

func TestDefAssignReadBeforeDef(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(5), sass.Imm(1)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckDefiniteAssignment(cfg)
	d, ok := findDiag(diags, CheckDefAssign, "R5 may be read before assignment")
	if !ok {
		t.Fatalf("uninitialized R5 read not reported: %v", diags)
	}
	if d.Sev != Warning {
		t.Fatalf("def-assign findings must be warnings, got %v", d)
	}
}

// TestDefAssignSameGuardCarryPair is the regression test for the
// if-converted carry-chain pattern (@P0 IADD.CC ; @P0 IADD.X): the guarded
// def of CC does not definitely assign, but the read under the same guard
// executes exactly when the def did and must not be flagged.
func TestDefAssignSameGuardCarryPair(t *testing.T) {
	cc := sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(1)}).WithGuard(sass.PredGuard{Reg: 0})
	cc.Mods.SetCC = true
	x := sass.New(sass.OpIADD, []sass.Operand{sass.R(4)}, []sass.Operand{sass.R(2), sass.Imm(0)}).WithGuard(sass.PredGuard{Reg: 0})
	x.Mods.X = true
	k := testKernel(t, nil,
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(0), sass.P(sass.PT)}),
		cc,
		x,
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := findDiag(CheckDefiniteAssignment(cfg), CheckDefAssign, "CC"); ok {
		t.Fatalf("same-guard carry read flagged: %v", d)
	}
}

// TestDefAssignGuardRedefinitionInvalidates: redefining the guard predicate
// between the guarded def and the guarded read breaks the executes-together
// argument, so the CC read must be flagged again.
func TestDefAssignGuardRedefinitionInvalidates(t *testing.T) {
	cc := sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(1)}).WithGuard(sass.PredGuard{Reg: 0})
	cc.Mods.SetCC = true
	x := sass.New(sass.OpIADD, []sass.Operand{sass.R(4)}, []sass.Operand{sass.R(2), sass.Imm(0)}).WithGuard(sass.PredGuard{Reg: 0})
	x.Mods.X = true
	k := testKernel(t, nil,
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(0), sass.P(sass.PT)}),
		cc,
		sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(1), sass.P(sass.PT)}),
		x,
		sass.New(sass.OpEXIT, nil, nil),
	)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findDiag(CheckDefiniteAssignment(cfg), CheckDefAssign, "CC may be read"); !ok {
		t.Fatal("CC read after guard redefinition not flagged")
	}
}

func TestRoundTripEncodingClean(t *testing.T) {
	ld := sass.New(sass.OpLDG, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Mem(2, 8)})
	ld.Mods.E = true
	ld.Mods.Width = sass.W64
	k := testKernel(t, map[string]int{"out": 3},
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.CMem(0, sass.ParamBase)}),
		ld,
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("out")}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	k.AddParam("p", 8)
	wantClean(t, CheckRoundTripEncoding(k))
}

// TestRoundTripDiffDetectsCorruption demonstrates the round-trip check's
// comparison core catching a broken decode: the re-decoded copy is mutated
// field by field and every mutation must surface.
func TestRoundTripDiffDetectsCorruption(t *testing.T) {
	k := testKernel(t, map[string]int{"l": 1},
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(7)}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	decode := func() *sass.Kernel {
		data, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var dec sass.Kernel
		if err := dec.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		return &dec
	}

	if diags := DiffKernels(k, decode(), CheckRoundTrip); len(diags) != 0 {
		t.Fatalf("identical kernels differ: %v", diags)
	}
	// A stream that stops decoding is an error whatever differences came
	// before it, as it was when the whole kernel was decoded first.
	enc, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if diags, err := diffEncoding(k, enc[:len(enc)-1], CheckRoundTrip); err == nil {
		t.Fatalf("truncated encoding compared without error: %v", diags)
	}

	mutations := []struct {
		name   string
		mutate func(*sass.Kernel)
		want   string
	}{
		{"opcode", func(d *sass.Kernel) { d.Instrs[0].Op = sass.OpIADD }, "opcode"},
		{"immediate", func(d *sass.Kernel) { d.Instrs[0].Srcs[0].Imm = 8 }, "source"},
		{"guard", func(d *sass.Kernel) { d.Instrs[1].Guard = sass.PredGuard{Reg: 0} }, "guard"},
		{"numregs", func(d *sass.Kernel) { d.NumRegs++ }, "register counts"},
		{"label", func(d *sass.Kernel) { d.Labels["l"] = 0 }, "label"},
		{"instr-count", func(d *sass.Kernel) { d.Instrs = d.Instrs[:1] }, "instruction count"},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			d := decode()
			m.mutate(d)
			diags := DiffKernels(k, d, CheckRoundTrip)
			wantError(t, diags, CheckRoundTrip, m.want)
			// The check itself compares against bytes, one decoded
			// instruction at a time: it must find what DiffKernels finds.
			data, err := d.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := diffEncoding(k, data, CheckRoundTrip)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(streamed, diags) {
				t.Errorf("streamed comparison reports\n%v\nDiffKernels\n%v", streamed, diags)
			}
		})
	}
}

func TestVerifyLinkageUnknownHandler(t *testing.T) {
	k := testKernel(t, nil,
		sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("ghost_handler")}),
		sass.New(sass.OpEXIT, nil, nil),
	)
	prog := sass.NewProgram()
	prog.AddKernel(k)
	wantError(t, Verify(prog), CheckStructural, "absent from the program handler table")

	prog.InternHandler("ghost_handler")
	wantClean(t, Verify(prog))
}
