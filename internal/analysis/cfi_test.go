package analysis_test

import (
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/workloads"
)

// kern assembles a test kernel with labels resolved.
func kern(t *testing.T, labels map[string]int, instrs ...sass.Instruction) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{Name: "k", NumRegs: 8, NumPreds: 4, Labels: labels, Instrs: instrs}
	if err := k.ResolveLabels(); err != nil {
		t.Fatalf("resolve labels: %v", err)
	}
	return k
}

func factsOf(t *testing.T, k *sass.Kernel) *analysis.KernelFacts {
	t.Helper()
	if diags := analysis.CheckStructure(k); analysis.HasErrors(diags) {
		t.Fatalf("structural errors in test kernel: %v", diags)
	}
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatalf("build CFG: %v", err)
	}
	return analysis.NewKernelFacts(cfg)
}

func mov(r uint8, v int64) sass.Instruction {
	return sass.New(sass.OpMOV32, []sass.Operand{sass.R(r)}, []sass.Operand{sass.Imm(v)})
}

func TestCleanCallTree(t *testing.T) {
	k := kern(t, map[string]int{"fn": 4},
		mov(0, 1),
		sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("fn")}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(1)}, []sass.Operand{sass.R(0)}),
		sass.New(sass.OpEXIT, nil, nil),
		// fn:
		sass.New(sass.OpIADD, []sass.Operand{sass.R(0)}, []sass.Operand{sass.R(0), sass.Imm(1)}),
		sass.New(sass.OpRET, nil, nil),
	)
	targets, diags := analysis.AnalyzeCFI(factsOf(t, k))
	if len(diags) != 0 {
		t.Fatalf("clean call tree produced diagnostics: %v", diags)
	}
	if !targets.Entries[4] || !targets.Returns[2] {
		t.Fatalf("target sets wrong: entries=%v returns=%v", targets.Entries, targets.Returns)
	}
}

func TestRetWithEmptyCallStack(t *testing.T) {
	k := kern(t, nil,
		mov(0, 1),
		sass.New(sass.OpRET, nil, nil),
		sass.New(sass.OpEXIT, nil, nil),
	)
	_, diags := analysis.AnalyzeCFI(factsOf(t, k))
	want := "empty call stack"
	if !hasError(diags, want) {
		t.Fatalf("missing %q error, got %v", want, diags)
	}
}

func TestUnreachableRet(t *testing.T) {
	k := kern(t, nil,
		mov(0, 1),
		sass.New(sass.OpEXIT, nil, nil),
		sass.New(sass.OpRET, nil, nil),
	)
	_, diags := analysis.AnalyzeCFI(factsOf(t, k))
	want := "not reachable from any call site"
	if !hasError(diags, want) {
		t.Fatalf("missing %q error, got %v", want, diags)
	}
}

func TestCallIntoRegionMiddle(t *testing.T) {
	// The CAL targets fn2, which the straight-line code at fn falls into:
	// a call into the middle of a region.
	k := kern(t, map[string]int{"fn2": 4},
		sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("fn2")}),
		mov(1, 2),
		sass.New(sass.OpEXIT, nil, nil),
		mov(2, 3), // fn: falls through into fn2
		sass.New(sass.OpIADD, []sass.Operand{sass.R(0)}, []sass.Operand{sass.R(0), sass.Imm(1)}),
		sass.New(sass.OpRET, nil, nil),
	)
	_, diags := analysis.AnalyzeCFI(factsOf(t, k))
	want := "call into the middle of a region"
	if !hasError(diags, want) {
		t.Fatalf("missing %q error, got %v", want, diags)
	}
}

func TestSubroutineLoopHeadIsLegal(t *testing.T) {
	// A loop whose head is the subroutine entry: the entry block has a
	// predecessor, but it lies inside the subroutine, which is legal.
	k := kern(t, map[string]int{"fn": 2},
		sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("fn")}),
		sass.New(sass.OpEXIT, nil, nil),
		// fn: loop head
		sass.New(sass.OpIADD, []sass.Operand{sass.R(0)}, []sass.Operand{sass.R(0), sass.Imm(1)}),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("fn")}).WithGuard(sass.PredGuard{Reg: 0}),
		sass.New(sass.OpRET, nil, nil),
	)
	_, diags := analysis.AnalyzeCFI(factsOf(t, k))
	for _, d := range diags {
		if d.Sev == analysis.Error {
			t.Fatalf("legal subroutine loop head flagged: %v", diags)
		}
	}
}

func TestSyncOutsideRegion(t *testing.T) {
	k := kern(t, nil,
		mov(0, 1),
		sass.New(sass.OpSYNC, nil, nil),
		sass.New(sass.OpEXIT, nil, nil),
	)
	_, diags := analysis.AnalyzeCFI(factsOf(t, k))
	want := "no enclosing SSY region"
	if !hasError(diags, want) {
		t.Fatalf("missing %q error, got %v", want, diags)
	}
}

func TestBackwardSSYTarget(t *testing.T) {
	k := kern(t, map[string]int{"back": 0},
		mov(0, 1),
		sass.New(sass.OpSSY, nil, []sass.Operand{sass.Label("back")}),
		sass.New(sass.OpSYNC, nil, nil),
		sass.New(sass.OpEXIT, nil, nil),
	)
	_, diags := analysis.AnalyzeCFI(factsOf(t, k))
	want := "precedes the SSY"
	if !hasError(diags, want) {
		t.Fatalf("missing %q error, got %v", want, diags)
	}
}

func hasError(diags []analysis.Diagnostic, substr string) bool {
	for _, d := range diags {
		if d.Sev == analysis.Error && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

// TestBuiltinsClean pins the static side of the cross-validation contract:
// every built-in workload, compiled and instrumented, is free of cfi
// diagnostics (warnings included, so the -Werror CI gate holds).
func TestBuiltinsClean(t *testing.T) {
	for _, spec := range workloads.All() {
		prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: compile: %v", spec.Name, err)
		}
		assertCFIClean(t, spec.Name, prog)
		if err := sassi.Instrument(prog, sassi.Options{
			Where:         sassi.BeforeControlXfer | sassi.BeforeSSY,
			BeforeHandler: "sassi_cfi_handler",
			Verify:        analysis.VerifyOff,
		}); err != nil {
			t.Fatalf("%s: instrument: %v", spec.Name, err)
		}
		assertCFIClean(t, spec.Name+" (instrumented)", prog)
	}
}

// TestMutantsRejected pins the other side of the contract: every CFI seed
// mutant carries a static error naming its corruption class.
func TestMutantsRejected(t *testing.T) {
	cases := []struct{ name, want string }{
		{"mutant.cfi-ret-nocall", "empty call stack"},
		{"mutant.cfi-cal-midblock", "call into the middle of a region"},
		{"mutant.cfi-ssy-skew", "no enclosing SSY region"},
	}
	for _, c := range cases {
		spec, ok := workloads.GetMutant(c.name)
		if !ok {
			t.Fatalf("mutant %s not registered", c.name)
		}
		prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		for _, k := range prog.Kernels {
			cfg, err := sass.BuildCFG(k)
			if err != nil {
				t.Fatalf("%s: build CFG: %v", c.name, err)
			}
			if _, diags := analysis.AnalyzeCFI(analysis.NewKernelFacts(cfg)); !hasError(diags, c.want) {
				t.Errorf("%s: missing %q error, got %v", c.name, c.want, diags)
			}
		}
	}
}

func assertCFIClean(t *testing.T, what string, prog *sass.Program) {
	t.Helper()
	for _, k := range prog.Kernels {
		cfg, err := sass.BuildCFG(k)
		if err != nil {
			t.Fatalf("%s: %s: build CFG: %v", what, k.Name, err)
		}
		if _, diags := analysis.AnalyzeCFI(analysis.NewKernelFacts(cfg)); len(diags) != 0 {
			t.Errorf("%s: %s: cfi diagnostics on a clean built-in: %v", what, k.Name, diags)
		}
	}
}
