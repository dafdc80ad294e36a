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

// ModelDeps is the pairwise dependence graph BuildDeps replaced: every
// conflicting pair of a block gets its edge.
var ModelDeps = modelDeps

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
// indices. It replays idx's block from its entry set for every query.
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

// Dominators computes, for every block, the set of blocks that dominate
// it (including itself), as a bitset over block IDs. Blocks unreachable
// from the entry report the full set (vacuous domination).
func Dominators(cfg *sass.CFG) []Bits {
	nb := len(cfg.Blocks)
	gen := selfSets(nb)
	_, out := Solve(cfg, Problem{
		Dir:  Forward,
		Meet: Intersect,
		Bits: nb,
		Gen:  gen,
		// Boundary empty: nothing dominates the entry except itself (Gen).
	})
	return out
}

// Dominates reports whether block a dominates block b given Dominators'
// result.
func Dominates(dom []Bits, a, b int) bool { return dom[b].Has(a) }

// DefSite is one definition site for reaching-definitions: instruction
// Instr defines regspace entry Reg.
type DefSite struct {
	Instr int
	Reg   int // regspace index
}

// ReachInfo is the result of ReachingDefs. Bit i of a set refers to
// Sites[i].
type ReachInfo struct {
	cfg   *sass.CFG
	Sites []DefSite
	// In and Out are per-block reaching-definition sets.
	In, Out []Bits
	// Sites lists each instruction's sites together, in instruction
	// order: instruction i's are Sites[instrSite[i]:instrSite[i+1]].
	// byReg lists every site of regspace entry r, ascending:
	// byReg[regSite[r]:regSite[r+1]].
	instrSite, regSite []int32
	byReg              []int32
}

// sitesOf returns the sites of regspace entry r, ascending.
func (ri *ReachInfo) sitesOf(r int) []int32 { return ri.byReg[ri.regSite[r]:ri.regSite[r+1]] }

// ReachingDefs solves reaching definitions over the CFG: a definition d
// of register r reaches point p if there is a path from d to p on which r
// is not unconditionally redefined. Guarded (predicated) definitions
// generate but do not kill.
func ReachingDefs(cfg *sass.CFG) *ReachInfo {
	instrs := cfg.Kernel.Instrs
	ri := &ReachInfo{cfg: cfg, instrSite: make([]int32, len(instrs)+1), regSite: make([]int32, regSpaceBits+1)}
	var defBuf [16]int
	n := 0
	for i := range instrs {
		n += len(appendDefs(defBuf[:0], &instrs[i]))
	}
	ri.Sites = make([]DefSite, 0, n)
	for i := range instrs {
		ri.instrSite[i] = int32(len(ri.Sites))
		for _, d := range appendDefs(defBuf[:0], &instrs[i]) {
			ri.Sites = append(ri.Sites, DefSite{Instr: i, Reg: d})
			ri.regSite[d+1]++
		}
	}
	ri.instrSite[len(instrs)] = int32(n)
	for r := range regSpaceBits {
		ri.regSite[r+1] += ri.regSite[r]
	}
	ri.byReg = make([]int32, n)
	next := make([]int32, regSpaceBits)
	copy(next, ri.regSite)
	for s, d := range ri.Sites {
		ri.byReg[next[d.Reg]] = int32(s)
		next[d.Reg]++
	}

	nb := len(cfg.Blocks)
	sets := newBitsTable(2*nb, n)
	gen, kill := sets[:nb:nb], sets[nb:]
	for b, blk := range cfg.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			own := ri.Sites[ri.instrSite[i]:ri.instrSite[i+1]]
			if instrs[i].Guard.IsAlways() {
				// An unconditional def kills every other site of the same
				// register, including earlier gens in this block.
				for _, d := range own {
					for _, s := range ri.sitesOf(d.Reg) {
						if ri.Sites[s].Instr != i {
							kill[b].Set(int(s))
							gen[b].Clear(int(s))
						}
					}
				}
			}
			for s := ri.instrSite[i]; s < ri.instrSite[i+1]; s++ {
				gen[b].Set(int(s))
				kill[b].Clear(int(s))
			}
		}
	}
	ri.In, ri.Out = Solve(cfg, Problem{
		Dir: Forward, Meet: Union, Bits: n, Gen: gen, Kill: kill,
	})
	return ri
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
