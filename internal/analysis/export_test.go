package analysis

import (
	"fmt"
	"math/bits"
	"reflect"

	"sassi/internal/sass"
)

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

// AnalyzeValues is NewKernelFacts(cfg).Values(): the value analysis of a
// CFG no other check shares.
func AnalyzeValues(cfg *sass.CFG) *Valuation { return NewKernelFacts(cfg).Values() }

// ReachingAt returns the definition sites of regspace entry reg that
// reach instruction idx (just before it executes), as instruction
// indices. It replays idx's block from its entry set for every query: the
// model the one-walk cross-block pass (crossBlockRAW) is held to.
func (ri *ReachInfo) ReachingAt(idx int, reg int) []int {
	blk := ri.cfg.BlockOf(idx)
	cur := ri.In[blk.ID].Copy()
	var defBuf [16]int
	for i := blk.Start; i < idx; i++ {
		in := &ri.cfg.Kernel.Instrs[i]
		defs := appendDefs(defBuf[:0], in)
		if in.Guard.IsAlways() {
			for _, d := range defs {
				for _, s := range ri.sitesOf(d) {
					cur.Clear(int(s))
				}
			}
		}
		for _, d := range defs {
			for _, s := range ri.sitesOf(d) {
				if ri.Sites[s].Instr == i {
					cur.Set(int(s))
				}
			}
		}
	}
	var out []int
	for _, s := range ri.sitesOf(reg) {
		if cur.Has(int(s)) {
			out = append(out, ri.Sites[s].Instr)
		}
	}
	return out
}

// PostDominatorSolves is how many times PostDominators has run in this
// process.
func PostDominatorSolves() int64 { return postDomSolves.Load() }

// Members lists the set bit indices in ascending order.
func (b Bits) Members() []int {
	var out []int
	for wi, w := range b {
		for w != 0 {
			out = append(out, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// ColdSolveMismatch compares the value analysis of cfg, each of whose
// divergence passes after the first starts from the fixpoint of the pass
// before, with one that solves every pass from scratch: "" when every
// block-entry state is equal, else the first difference. passes is how
// many inner fixpoints the analysis ran.
func ColdSolveMismatch(cfg *sass.CFG) (mismatch string, passes int) {
	warm := NewKernelFacts(cfg).Values()
	s := newValSolver(cfg)
	d := newDivergence(NewKernelFacts(cfg))
	s.cold(d.mask)
	cold := &Valuation{cfg: cfg, blockIn: s.in, cur: s.st, pos: -1}
	for passes = 1; len(d.grow(cold)) > 0; passes++ {
		s.cold(d.mask)
		cold.pos = -1
	}
	for b := range cold.blockIn {
		w, c := &warm.blockIn[b], &cold.blockIn[b]
		for r := range c.regs {
			if !reflect.DeepEqual(w.regs[r], c.regs[r]) {
				return fmt.Sprintf("block %d entry: R%d is %+v, cold %+v", b, r, w.regs[r], c.regs[r]), passes
			}
		}
		for p := range c.pred {
			if !reflect.DeepEqual(w.pred[p], c.pred[p]) {
				return fmt.Sprintf("block %d entry: P%d is %+v, cold %+v", b, p, w.pred[p], c.pred[p]), passes
			}
		}
		if w.cc != c.cc {
			return fmt.Sprintf("block %d entry: CC uniform %v, cold %v", b, w.cc, c.cc), passes
		}
	}
	return "", passes
}

// CrossBlockRAWPass readies f for the cross-block RAW pass — its use sets,
// dominators and reaching definitions computed — and returns the pass, to
// be run alone, and how many (instruction, use slot) queries it answers.
func CrossBlockRAWPass(f *KernelFacts) (pass func() []Edge, queries int) {
	k := f.CFG.Kernel
	sets := newBitsTable(2*len(k.Instrs), CCBit()+1)
	uses := sets[:len(k.Instrs)]
	for i := range k.Instrs {
		regSets(&k.Instrs[i], uses[i], sets[len(k.Instrs)+i])
		queries += uses[i].Count()
	}
	f.reachingDefs()
	f.dominators()
	return func() []Edge { return crossBlockRAW(f, uses) }, queries
}
