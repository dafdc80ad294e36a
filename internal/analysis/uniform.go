package analysis

// Exported per-instruction uniformity queries over the affine value
// lattice. The predecoded execution engine (internal/sim) keys its
// uniform-warp fast path off these bits, and sassi-lint's `uniformity`
// mode dumps them so fast-path coverage is inspectable: a lattice
// regression shows up as a golden-file diff before it shows up as a
// missed speedup.

import "sassi/internal/sass"

// InstrUniformity is what the lattice proves about one instruction's
// inputs. Both bits are warp-level claims: they hold for every dynamic
// execution of the instruction by any warp.
type InstrUniformity struct {
	// GuardUniform: the guard predicate (or "always") evaluates
	// identically on every lane of a warp, so the instruction executes
	// all-lanes-or-none.
	GuardUniform bool
	// SrcsUniform: every source read — GPRs (including memory-operand
	// base registers), immediates, constant-bank words, special
	// registers, predicate operands, and the carry-in when .X is used —
	// is warp-uniform, so one lane's computation equals every lane's.
	SrcsUniform bool
}

// Uniform reports whether the instruction is fully uniform: executed by
// all lanes or none, with every lane computing the same values.
func (u InstrUniformity) Uniform() bool { return u.GuardUniform && u.SrcsUniform }

// Uniformity returns the lattice's uniformity facts for instruction idx,
// observing the same predication view RegValue uses: a guarded
// instruction's sources see exact values defined earlier under the same
// guard.
func (v *Valuation) Uniformity(idx int) InstrUniformity {
	return InstrUniformity{
		GuardUniform: v.GuardFacts(idx).Uniform,
		SrcsUniform:  srcsUniform(v.viewAt(idx), &v.cfg.Kernel.Instrs[idx]),
	}
}

// KernelUniformity runs the value analysis over one kernel and returns
// the per-instruction uniformity facts, indexed by instruction. It is
// the one-call form the simulator's predecoder and sassi-lint share.
func KernelUniformity(k *sass.Kernel) ([]InstrUniformity, error) {
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		return nil, err
	}
	v := AnalyzeValues(cfg)
	out := make([]InstrUniformity, len(k.Instrs))
	for i := range k.Instrs {
		out[i] = v.Uniformity(i)
	}
	return out, nil
}
