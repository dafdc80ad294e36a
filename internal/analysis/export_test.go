package analysis

import "sassi/internal/sass"

// UpdateGolden exposes the package's -update flag to the external tests.
var UpdateGolden = updateGolden

// LivenessMismatch compares Liveness with the model it replaced at every
// instruction of cfg's kernel: "" if they agree, else the first difference.
var LivenessMismatch = livenessMismatch

// ValueRuns reports how many value fixpoints f.Values has run: it memoises,
// so none or one.
func (f *KernelFacts) ValueRuns() int {
	if f.val == nil {
		return 0
	}
	return 1
}

// DiffKernels is diffEncoding's comparison against a decoded kernel b
// rather than a byte stream; the round-trip unit tests corrupt a decoded
// copy and expect the differences found by both.
func DiffKernels(a, b *sass.Kernel, check string) []Diagnostic {
	d := kernelDiff{a: a, check: check}
	d.header(b)
	if d.sameLen(len(b.Instrs)) {
		for i := range b.Instrs {
			d.instr(i, &b.Instrs[i])
		}
	}
	return d.diags
}

// SymCoeff returns the coefficient of sym.
func (v Value) SymCoeff(s Sym) int64 {
	for _, t := range v.Syms {
		if t.Sym == s {
			return t.Coeff
		}
	}
	return 0
}

// OperandValue evaluates a source operand in the state before idx:
// registers through the valuation (same-guard reads observe earlier
// same-guard defs exactly), immediates as constants, constant-bank words
// and CTA-uniform special registers as symbols.
func (v *Valuation) OperandValue(idx int, o sass.Operand) Value {
	return operandValue(v.viewAt(idx), o)
}

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
