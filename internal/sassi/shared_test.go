package sassi_test

import (
	"fmt"
	"slices"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// sharingCopy returns a program whose kernels are fresh but whose injected
// instructions hold the very operand lists of p's, so that a pass which
// rewrites the copy in place shows on p if it writes an injected list. The
// original instructions are deep copies: the label remap of a stacked pass
// rewrites their label operands in place by design.
func sharingCopy(p *sass.Program) *sass.Program {
	c := p.Clone()
	for ki, k := range p.Kernels {
		for i := range k.Instrs {
			if k.Instrs[i].Injected {
				c.Kernels[ki].Instrs[i] = k.Instrs[i]
			}
		}
	}
	return c
}

// programDiff returns "" if a and b hold the same kernels, instruction for
// instruction and operand for operand, else the first difference.
func programDiff(a, b *sass.Program) string {
	if len(a.Kernels) != len(b.Kernels) {
		return fmt.Sprintf("%d kernels became %d", len(a.Kernels), len(b.Kernels))
	}
	for ki, ka := range a.Kernels {
		kb := b.Kernels[ki]
		if len(ka.Instrs) != len(kb.Instrs) {
			return fmt.Sprintf("%s: %d instructions became %d", ka.Name, len(ka.Instrs), len(kb.Instrs))
		}
		for i := range ka.Instrs {
			x, y := &ka.Instrs[i], &kb.Instrs[i]
			if x.Guard != y.Guard || x.Op != y.Op || x.Mods != y.Mods || x.Injected != y.Injected ||
				!slices.Equal(x.Dsts, y.Dsts) || !slices.Equal(x.Srcs, y.Srcs) {
				return fmt.Sprintf("%s@%d: %v became %v", ka.Name, i, x, y)
			}
		}
		for name, idx := range ka.Labels {
			if kb.Labels[name] != idx {
				return fmt.Sprintf("%s: label %s at %d moved to %d", ka.Name, name, idx, kb.Labels[name])
			}
		}
	}
	return ""
}

// TestInstrumentedListsStayUnwritten: injected instructions share their
// site-invariant operand lists, so every consumer of an instrumented
// program must leave its operands as it found them. Right after Instrument
// the program is deep-copied; then it is verified (every check, the codec
// round-trip included), checked against its original, encoded and decoded,
// instrumented again through a copy that shares its injected lists, and
// launched (which predecodes it), and must still equal the copy. Every
// workload under every named tool.
func TestInstrumentedListsStayUnwritten(t *testing.T) {
	stacked := sassi.Options{
		Where: sassi.BeforeAll, What: sassi.PassMemoryInfo | sassi.PassRegisterInfo,
		BeforeHandler: "stacked", Verify: analysis.VerifyOff,
	}
	for _, spec := range workloads.All() {
		for _, named := range handlers.Tools() {
			what := spec.Name + "/" + named.Name
			prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			orig := prog.Clone()
			ctx := cuda.NewContext(sim.KeplerK10())
			tool := named.New(ctx)
			opts := tool.Options()
			opts.Verify = analysis.VerifyOff
			if err := sassi.Instrument(prog, opts); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want := prog.Clone()
			check := func(step string) {
				t.Helper()
				if d := programDiff(want, prog); d != "" {
					t.Fatalf("%s: %s wrote the instrumented program: %s", what, step, d)
				}
			}

			analysis.Verify(prog)
			check("analysis.Verify")
			analysis.VerifyInstrumentedProgram(orig, prog, sassi.Spec(), nil)
			check("VerifyInstrumentedProgram")
			for _, k := range prog.Kernels {
				data, err := k.MarshalBinary()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				var dec sass.Kernel
				if err := dec.UnmarshalBinary(data); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			check("MarshalBinary/UnmarshalBinary")
			if err := sassi.Instrument(sharingCopy(prog), stacked); err != nil {
				t.Fatalf("%s: stacked pass: %v", what, err)
			}
			check("a stacked Instrument pass")
			if err := handlers.Prepare(tool, prog); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			rt := sassi.NewRuntime(prog)
			if err := rt.Register(tool.Handler()); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			rt.Attach(ctx.Device())
			if _, err := spec.Run(ctx, prog, spec.DefaultDataset()); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			check("a launch")
		}
	}
}
