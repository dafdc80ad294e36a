package analysis

import (
	"slices"
	"testing"

	"sassi/internal/sass"
)

// fuzzSeedKernel is a small kernel exercising every serialized feature:
// labels, params, guards, modifiers, memory and control operands.
func fuzzSeedKernel(t testing.TB) *sass.Kernel {
	ld := sass.New(sass.OpLDG, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Mem(2, 8)})
	ld.Mods.E = true
	ld.Mods.Width = sass.W64
	cc := sass.New(sass.OpIADD, []sass.Operand{sass.R(6)}, []sass.Operand{sass.R(4), sass.Imm(1)})
	cc.Mods.SetCC = true
	k := &sass.Kernel{
		Name: "fuzz", NumRegs: 8, NumPreds: 2,
		Labels: map[string]int{"out": 5},
		Instrs: []sass.Instruction{
			sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.CMem(0, sass.ParamBase)}),
			ld,
			sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(4), sass.Imm(0), sass.P(sass.PT)}),
			cc,
			sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("out")}).WithGuard(sass.PredGuard{Reg: 0, Neg: true}),
			sass.New(sass.OpEXIT, nil, nil),
		},
	}
	k.AddParam("p", 8)
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

// fuzzBarrierKernel seeds the fuzzer with the synchronization and
// shared-memory shapes the divergence and concurrency passes care about:
// a tid-indexed STS, a BAR inside a guarded region, and an LDS after
// reconvergence.
func fuzzBarrierKernel(t testing.TB) *sass.Kernel {
	k := &sass.Kernel{
		Name: "fuzzbar", NumRegs: 8, NumPreds: 2, SharedBytes: 1024,
		Labels: map[string]int{"join": 6},
		Instrs: []sass.Instruction{
			sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
			sass.New(sass.OpSHL, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(2)}),
			sass.New(sass.OpSTS, nil, []sass.Operand{sass.Mem(3, 0), sass.R(2)}),
			sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(4), sass.P(sass.PT)}),
			sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("join")}).WithGuard(sass.PredGuard{Reg: 0, Neg: true}),
			sass.New(sass.OpBAR, nil, nil),
			sass.New(sass.OpLDS, []sass.Operand{sass.R(4)}, []sass.Operand{sass.Mem(3, 4)}),
			sass.New(sass.OpEXIT, nil, nil),
		},
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

// fuzzCallTreeKernel seeds the fuzzer with the control shapes the CFI pass
// cares about: a CAL/RET pair, a JCAL to an external symbol, and a nested
// SSY/SYNC region (outer parity split, inner split on the called side).
func fuzzCallTreeKernel(t testing.TB) *sass.Kernel {
	k := &sass.Kernel{
		Name: "fuzzcall", NumRegs: 8, NumPreds: 2,
		Labels: map[string]int{"oinner": 7, "ojoin": 9, "fn": 11, "finner": 16, "fjoin": 18},
		Instrs: []sass.Instruction{
			sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
			sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("fn")}),
			sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("sassi_fuzz_handler")}),
			sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(1), sass.P(sass.PT)}),
			sass.New(sass.OpSSY, nil, []sass.Operand{sass.Label("ojoin")}),
			sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("oinner")}).WithGuard(sass.PredGuard{Reg: 0}),
			sass.New(sass.OpSYNC, nil, nil),
			sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(1)}),
			sass.New(sass.OpSYNC, nil, nil),
			sass.New(sass.OpEXIT, nil, nil),
			sass.New(sass.OpEXIT, nil, nil),
			// fn: nested divergence inside the callee
			sass.New(sass.OpISETP, []sass.Operand{sass.P(0)}, []sass.Operand{sass.R(2), sass.Imm(2), sass.P(sass.PT)}),
			sass.New(sass.OpSSY, nil, []sass.Operand{sass.Label("fjoin")}),
			sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("finner")}).WithGuard(sass.PredGuard{Reg: 0}),
			sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(2)}),
			sass.New(sass.OpSYNC, nil, nil),
			sass.New(sass.OpIADD, []sass.Operand{sass.R(3)}, []sass.Operand{sass.R(2), sass.Imm(3)}),
			sass.New(sass.OpSYNC, nil, nil),
			sass.New(sass.OpRET, nil, nil),
		},
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

// FuzzVerify feeds mutated kernel encodings through the decoder and the
// full verifier: whatever bytes arrive, the pipeline must diagnose, never
// panic. This is the robustness contract sassi-lint relies on for
// .sasskrn inputs. The divergence, cfi and schedule checks share one
// control-stack walk and query one Valuation one after another, each
// leaving its replay cursor wherever its last query ended; their
// diagnostics must be what each check reports on facts of its own.
// Liveness must also agree with the model it replaced
// (liveness_model_test.go) on every decoded kernel that builds a CFG,
// whether or not the verifier accepts it.
func FuzzVerify(f *testing.F) {
	seed, err := fuzzSeedKernel(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	barSeed, err := fuzzBarrierKernel(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(barSeed)
	callSeed, err := fuzzCallTreeKernel(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(callSeed)
	// Hand-corrupted variants steer the fuzzer at interesting boundaries.
	truncated := append([]byte(nil), seed[:len(seed)/2]...)
	f.Add(truncated)
	zeroed := append([]byte(nil), seed...)
	for i := len(zeroed) - 8; i < len(zeroed); i++ {
		zeroed[i] = 0xff
	}
	f.Add(zeroed)
	f.Add([]byte("SASSKRN1"))
	f.Add([]byte{})
	// Instructions the launch refuses: IADD with one source, and SEL with
	// R9 where it reads a predicate.
	for _, in := range []sass.Instruction{
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(3)}),
		sass.New(sass.OpSEL, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(3), sass.R(4), sass.R(9)}),
	} {
		k := &sass.Kernel{Name: "misread", Instrs: []sass.Instruction{in, sass.New(sass.OpEXIT, nil, nil)}}
		data, err := k.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound decode cost; corruption coverage is size-independent
		}
		k := new(sass.Kernel)
		if err := k.UnmarshalBinary(data); err != nil {
			return // rejecting garbage is the expected path
		}
		if cfg, err := sass.BuildCFG(k); err == nil {
			if d := livenessMismatch(cfg); d != "" {
				t.Fatal(d)
			}
		}
		diags, facts := VerifyKernelFacts(k)
		if facts != nil {
			own := checkDivergence(NewKernelFacts(facts.CFG))
			_, cfi := AnalyzeCFI(NewKernelFacts(facts.CFG))
			own = append(own, cfi...)
			own = append(own, checkSchedule(NewKernelFacts(facts.CFG))...)
			var shared []Diagnostic
			for _, d := range diags {
				switch d.Check {
				case CheckDivergence, CheckCFI, CheckSchedule:
					shared = append(shared, d)
				}
			}
			if !slices.Equal(shared, own) {
				t.Fatalf("checks sharing one facts value report\n%v\neach on its own\n%v", shared, own)
			}
		}
		SortDiagnostics(diags)
		for _, d := range diags {
			_ = d.String()
		}
	})
}
