package cfi_test

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/analysis/cfi"
	"sassi/internal/sass"
)

// FuzzCFI drives the CFI pass with arbitrary kernels: on any input whose
// structure passes and whose CFG builds, Analyze must terminate without
// panicking and every diagnostic must render. Seeds cover the shapes the
// pass special-cases: call trees, empty-stack RETs, mid-region calls,
// nested SSY regions, and backward reconvergence targets.
func FuzzCFI(f *testing.F) {
	seeds := [][]sass.Instruction{
		{ // call + return
			sass.New(sass.OpCAL, nil, []sass.Operand{{Kind: sass.OpdLabel, Imm: 2}}),
			sass.New(sass.OpEXIT, nil, nil),
			sass.New(sass.OpRET, nil, nil),
		},
		{ // RET with empty call stack
			sass.New(sass.OpRET, nil, nil),
			sass.New(sass.OpEXIT, nil, nil),
		},
		{ // nested SSY regions
			sass.New(sass.OpSSY, nil, []sass.Operand{{Kind: sass.OpdLabel, Imm: 5}}),
			sass.New(sass.OpSSY, nil, []sass.Operand{{Kind: sass.OpdLabel, Imm: 4}}),
			sass.New(sass.OpBRA, nil, []sass.Operand{{Kind: sass.OpdLabel, Imm: 4}}).WithGuard(sass.PredGuard{Reg: 0}),
			sass.New(sass.OpSYNC, nil, nil),
			sass.New(sass.OpSYNC, nil, nil),
			sass.New(sass.OpEXIT, nil, nil),
		},
		{ // backward SSY target
			sass.New(sass.OpNOP, nil, nil),
			sass.New(sass.OpSSY, nil, []sass.Operand{{Kind: sass.OpdLabel, Imm: 0}}),
			sass.New(sass.OpSYNC, nil, nil),
			sass.New(sass.OpEXIT, nil, nil),
		},
	}
	for _, instrs := range seeds {
		k := &sass.Kernel{Name: "fuzz", NumRegs: 8, NumPreds: 4, Instrs: instrs}
		if b, err := k.MarshalBinary(); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		var k sass.Kernel
		if err := k.UnmarshalBinary(data); err != nil {
			t.Skip()
		}
		if analysis.HasErrors(analysis.CheckStructure(&k)) {
			t.Skip()
		}
		cfg, err := sass.BuildCFG(&k)
		if err != nil {
			t.Skip()
		}
		_, diags := cfi.Analyze(analysis.NewKernelFacts(cfg))
		for _, d := range diags {
			_ = d.String()
		}
	})
}
