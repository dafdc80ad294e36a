package concurrency

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
)

// fuzzSharedKernel is a seed exercising both concurrency passes: a
// tid-indexed STS, a guarded BAR under a tid-dependent predicate (the
// barrier pass's worst case), an unguarded BAR, and an offset LDS in the
// next interval.
func fuzzSharedKernel(tb testing.TB) *sass.Kernel {
	eq := sass.Instruction{Guard: sass.Always, Op: sass.OpISETP,
		Mods: sass.Mods{Cmp: sass.CmpEQ, Unsigned: true, Logic: sass.LogicAND},
		Dsts: []sass.Operand{sass.P(0)},
		Srcs: []sass.Operand{sass.R(2), sass.Imm(0), sass.P(sass.PT)}}
	k := &sass.Kernel{
		Name: "fuzzshared", NumRegs: 16, NumPreds: 7,
		SharedBytes: 4096, BlockDim: [3]int{64, 1, 1},
		Instrs: []sass.Instruction{
			sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
			sass.New(sass.OpSHL, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(2)}),
			sass.New(sass.OpSTS, nil, []sass.Operand{sass.Mem(3, 0), sass.R(2)}),
			eq,
			sass.New(sass.OpBAR, nil, nil).WithGuard(sass.PredGuard{Reg: 0}),
			sass.New(sass.OpBAR, nil, nil),
			sass.New(sass.OpLDS, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Mem(3, 4)}),
			sass.New(sass.OpEXIT, nil, nil),
		},
	}
	if err := k.ResolveLabels(); err != nil {
		tb.Fatal(err)
	}
	return k
}

// FuzzConcurrencyCheck feeds mutated kernel encodings through the decoder
// and the concurrency passes directly: whatever kernel decodes, barrier
// and race analysis must diagnose or stay silent, never panic. (The
// analysis package's FuzzVerify cannot reach these passes — they are
// outside Verify, and the analysis package cannot import this one — so
// they get their own target.)
func FuzzConcurrencyCheck(f *testing.F) {
	seed, err := fuzzSharedKernel(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	truncated := append([]byte(nil), seed[:len(seed)/2]...)
	f.Add(truncated)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound decode cost
		}
		k := new(sass.Kernel)
		if err := k.UnmarshalBinary(data); err != nil {
			return // rejecting garbage is the expected path
		}
		// Check runs only on structurally valid kernels (in-range operands,
		// resolved labels) — honour that contract here exactly as
		// VerifyKernelFacts does.
		if analysis.HasErrors(analysis.CheckStructure(k)) {
			return
		}
		cfg, err := sass.BuildCFG(k)
		if err != nil {
			return // unbuildable CFGs are the structural pass's problem
		}
		for _, d := range Check(analysis.NewKernelFacts(cfg)) {
			_ = d.String()
		}
	})
}
