package concurrency

import (
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
)

// testKernel builds a resolved kernel with a block-dimension hint for the
// disjointness prover (zero dims = no hint).
func testKernel(t *testing.T, dims [3]int, labels map[string]int, instrs ...sass.Instruction) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{Name: "t", Instrs: instrs, Labels: labels,
		NumRegs: 16, NumPreds: 7, SharedBytes: 4096, BlockDim: dims}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

func checkKernel(t *testing.T, k *sass.Kernel) []analysis.Diagnostic {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	return Check(analysis.NewKernelFacts(cfg))
}

func findDiag(diags []analysis.Diagnostic, check, substr string) (analysis.Diagnostic, bool) {
	for _, d := range diags {
		if d.Check == check && strings.Contains(d.Msg, substr) {
			return d, true
		}
	}
	return analysis.Diagnostic{}, false
}

func wantNone(t *testing.T, diags []analysis.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %v", d)
	}
}

// Assembly shorthands.

func tidx(r uint8) sass.Instruction {
	return sass.New(sass.OpS2R, []sass.Operand{sass.R(r)}, []sass.Operand{sass.SReg(sass.SRTidX)})
}

func ctaidx(r uint8) sass.Instruction {
	return sass.New(sass.OpS2R, []sass.Operand{sass.R(r)}, []sass.Operand{sass.SReg(sass.SRCtaidX)})
}

func setp(p uint8, a, b sass.Operand) sass.Instruction {
	return sass.Instruction{Guard: sass.Always, Op: sass.OpISETP,
		Mods: sass.Mods{Cmp: sass.CmpLT, Unsigned: true, Logic: sass.LogicAND},
		Dsts: []sass.Operand{sass.P(p)},
		Srcs: []sass.Operand{a, b, sass.P(sass.PT)}}
}

func guarded(in sass.Instruction, p uint8, neg bool) sass.Instruction {
	in.Guard = sass.PredGuard{Reg: p, Neg: neg}
	return in
}

func bra(label string) sass.Instruction {
	return sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label(label)})
}

func ssy(label string) sass.Instruction {
	return sass.New(sass.OpSSY, nil, []sass.Operand{sass.Label(label)})
}

func sync() sass.Instruction { return sass.New(sass.OpSYNC, nil, nil) }

func nop() sass.Instruction { return sass.New(sass.OpNOP, nil, nil) }

func bar() sass.Instruction { return sass.New(sass.OpBAR, nil, nil) }

func exit() sass.Instruction { return sass.New(sass.OpEXIT, nil, nil) }

func shl(d, a uint8, sh int64) sass.Instruction {
	return sass.New(sass.OpSHL, []sass.Operand{sass.R(d)}, []sass.Operand{sass.R(a), sass.Imm(sh)})
}

func sts(base uint8, off int64, data uint8) sass.Instruction {
	return sass.New(sass.OpSTS, nil, []sass.Operand{sass.Mem(base, off), sass.R(data)})
}

func lds(d, base uint8, off int64) sass.Instruction {
	return sass.New(sass.OpLDS, []sass.Operand{sass.R(d)}, []sass.Operand{sass.Mem(base, off)})
}
