package analysis

import (
	"fmt"
	"math/bits"

	"sassi/internal/sass"
)

// Bits is a fixed-width bitset, the lattice element of every dataflow
// problem in this package.
type Bits []uint64

// NewBits allocates a zeroed bitset holding n bits.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// newBitsTable allocates n zeroed bitsets of the given width as slices of
// one backing array (cap == len each, so none can grow into the next).
func newBitsTable(n, width int) []Bits {
	words := (width + 63) / 64
	backing := make(Bits, n*words)
	sets := make([]Bits, n)
	for i := range sets {
		sets[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return sets
}

// Set sets bit i.
func (b Bits) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Has reports bit i.
func (b Bits) Has(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<(uint(i)%64)) != 0
}

// Fill sets the first n bits.
func (b Bits) Fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if tail := n % 64; tail != 0 && len(b) > 0 {
		b[len(b)-1] = (1 << uint(tail)) - 1
	}
}

// Copy returns an independent copy.
func (b Bits) Copy() Bits {
	c := make(Bits, len(b))
	copy(c, b)
	return c
}

// CopyFrom overwrites b with o.
func (b Bits) CopyFrom(o Bits) { copy(b, o) }

// Union ors o into b, reporting whether b changed. A nil o is empty.
func (b Bits) Union(o Bits) bool {
	changed := false
	for i := range o {
		if n := b[i] | o[i]; n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// Intersect ands o into b, reporting whether b changed.
func (b Bits) Intersect(o Bits) bool {
	changed := false
	for i := range b {
		var ov uint64
		if i < len(o) {
			ov = o[i]
		}
		if n := b[i] & ov; n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// AndNot clears every bit of o from b. A nil o is empty.
func (b Bits) AndNot(o Bits) {
	for i := range o {
		b[i] &^= o[i]
	}
}

// Equal reports bitwise equality (same width assumed).
func (b Bits) Equal(o Bits) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

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

// Direction of a dataflow problem.
type Direction uint8

// Dataflow directions.
const (
	Forward Direction = iota
	Backward
)

// Meet operator of a dataflow problem: Union for may-analyses, Intersect
// for must-analyses.
type Meet uint8

// Meet operators.
const (
	Union Meet = iota
	Intersect
)

// Problem is a monotone bitvector dataflow problem over a sass.CFG with
// block transfer functions of the form OUT = Gen ∪ (IN − Kill).
type Problem struct {
	Dir  Direction
	Meet Meet
	// Bits is the lattice width (number of facts).
	Bits int
	// Gen and Kill are the per-block transfer sets, indexed by block ID.
	// A nil entry is the empty set.
	Gen, Kill []Bits
	// Boundary seeds the entry block's IN (forward) or every exit block's
	// OUT (backward). Nil is the empty set.
	Boundary Bits
}

// Solve iterates the problem to its fixed point and returns the IN and
// OUT set of every block. Interior blocks start at ⊤ (full for Intersect,
// empty for Union); blocks unreachable in the problem's direction keep
// values derived from that initialization, so must-analysis results for
// unreachable code are vacuously full.
func Solve(cfg *sass.CFG, p Problem) (in, out []Bits) {
	nb := len(cfg.Blocks)
	// Every set, and the two scratch sets of the iteration, from one array.
	sets := newBitsTable(2*nb+3, p.Bits)
	in, out = sets[:nb:nb], sets[nb:2*nb:2*nb]
	acc, tmp, empty := sets[2*nb], sets[2*nb+1], sets[2*nb+2]
	if p.Meet == Intersect {
		for _, s := range sets[:2*nb] {
			s.Fill(p.Bits)
		}
	}
	boundary := p.Boundary
	if boundary == nil {
		boundary = empty
	}

	transfer := func(dst, src Bits, b int) bool {
		tmp.CopyFrom(src)
		if p.Kill != nil && p.Kill[b] != nil {
			tmp.AndNot(p.Kill[b])
		}
		if p.Gen != nil && p.Gen[b] != nil {
			tmp.Union(p.Gen[b])
		}
		if dst.Equal(tmp) {
			return false
		}
		dst.CopyFrom(tmp)
		return true
	}
	// meetInto folds src into acc under the problem's meet operator.
	meetInto := func(src Bits) {
		if p.Meet == Union {
			acc.Union(src)
		} else {
			acc.Intersect(src)
		}
	}
	// resetAcc sets acc to the meet's identity.
	resetAcc := func() {
		clear(acc)
		if p.Meet == Intersect {
			acc.Fill(p.Bits)
		}
	}

	for changed := true; changed; {
		changed = false
		for b := 0; b < nb; b++ {
			blk := cfg.Blocks[b]
			resetAcc()
			if p.Dir == Forward {
				for _, pr := range blk.Preds {
					meetInto(out[pr])
				}
				if b == 0 {
					// Entry: the boundary is an additional incoming edge
					// fact — for must-analyses it caps the meet (facts not
					// true at entry are not true after a back-edge either).
					meetInto(boundary)
				}
				if !in[b].Equal(acc) {
					in[b].CopyFrom(acc)
					changed = true
				}
				if transfer(out[b], in[b], b) {
					changed = true
				}
			} else {
				if len(blk.Succs) == 0 {
					acc.CopyFrom(boundary)
				} else {
					for _, s := range blk.Succs {
						meetInto(in[s])
					}
				}
				if !out[b].Equal(acc) {
					out[b].CopyFrom(acc)
					changed = true
				}
				if transfer(in[b], out[b], b) {
					changed = true
				}
			}
		}
	}
	return in, out
}

// Dominators computes, for every block, the set of blocks that dominate
// it (including itself), as a bitset over block IDs. Blocks unreachable
// from the entry report the full set (vacuous domination).
func Dominators(cfg *sass.CFG) []Bits {
	nb := len(cfg.Blocks)
	gen := make([]Bits, nb)
	for b := 0; b < nb; b++ {
		gen[b] = NewBits(nb)
		gen[b].Set(b)
	}
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

// PostDominators computes, for every block, the set of blocks that
// post-dominate it (including itself): b post-dominates a if every path
// from a to kernel exit passes through b. Kernels can have several exit
// blocks (EXIT, RET), so the analysis runs against a virtual exit that
// every no-successor block reaches; the virtual node itself is not
// represented in the result. Blocks that cannot reach any exit (infinite
// loops) report the full set (vacuous post-domination).
func PostDominators(cfg *sass.CFG) []Bits {
	nb := len(cfg.Blocks)
	gen := make([]Bits, nb)
	for b := 0; b < nb; b++ {
		gen[b] = NewBits(nb)
		gen[b].Set(b)
	}
	// Backward + Intersect: Solve seeds every no-successor block's OUT from
	// the boundary, which is exactly the virtual-exit edge — an empty
	// boundary says nothing post-dominates the exit except the exit blocks
	// themselves (their Gen).
	in, _ := Solve(cfg, Problem{
		Dir:  Backward,
		Meet: Intersect,
		Bits: nb,
		Gen:  gen,
	})
	return in
}

// PostDominates reports whether block a post-dominates block b given
// PostDominators' result.
func PostDominates(pdom []Bits, a, b int) bool { return pdom[b].Has(a) }

// The register space used by the dataflow problems: GPRs R0..R254 at
// [0,255), predicates P0..P6 at [predBase, predBase+7), and the condition
// code at ccIndex. RZ and PT are hardwired and never appear.
const (
	predBase     = sass.NumGPR
	ccIndex      = predBase + sass.NumPred
	regSpaceBits = ccIndex + 1
)

// GPRBit returns the regspace index of GPR r.
func GPRBit(r uint8) int { return int(r) }

// PredBit returns the regspace index of predicate p.
func PredBit(p uint8) int { return predBase + int(p) }

// CCBit returns the regspace index of the condition code.
func CCBit() int { return ccIndex }

// RegSpaceName renders a regspace index ("R5", "P3", "CC").
func RegSpaceName(bit int) string {
	switch {
	case bit < predBase:
		return fmt.Sprintf("R%d", bit)
	case bit < ccIndex:
		return fmt.Sprintf("P%d", bit-predBase)
	default:
		return "CC"
	}
}

// appendSrcUses appends to buf the regspace indices instruction in reads
// through its operands, its guard and its carry-in — as opposed to a guarded
// destination's merge of the old value, which MaybeUninitReads treats apart.
func appendSrcUses(buf []int, in *sass.Instruction) []int {
	var regs [16]uint8
	for _, r := range in.AppendGPRSrcs(regs[:0]) {
		buf = append(buf, GPRBit(r))
	}
	for _, p := range in.AppendPredSrcs(regs[:0]) {
		buf = append(buf, PredBit(p))
	}
	if in.Mods.X {
		buf = append(buf, CCBit())
	}
	return buf
}

// appendDefs appends to buf the regspace indices instruction in writes;
// the writes are unconditional (the def kills) iff in's guard is Always.
// Callers hand it buf[:0] over a fixed array to stay allocation-free.
func appendDefs(buf []int, in *sass.Instruction) []int {
	var regs [16]uint8
	for _, r := range in.AppendGPRDsts(regs[:0]) {
		buf = append(buf, GPRBit(r))
	}
	for _, p := range in.AppendPredDsts(regs[:0]) {
		buf = append(buf, PredBit(p))
	}
	if in.Mods.SetCC {
		buf = append(buf, CCBit())
	}
	return buf
}

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
	// byReg indexes Sites by regspace entry.
	byReg map[int][]int
}

// ReachingDefs solves reaching definitions over the CFG: a definition d
// of register r reaches point p if there is a path from d to p on which r
// is not unconditionally redefined. Guarded (predicated) definitions
// generate but do not kill.
func ReachingDefs(cfg *sass.CFG) *ReachInfo {
	ri := &ReachInfo{cfg: cfg, byReg: map[int][]int{}}
	siteAt := map[int][]int{} // instr -> site bit indices
	var defBuf [16]int
	for i := range cfg.Kernel.Instrs {
		for _, d := range appendDefs(defBuf[:0], &cfg.Kernel.Instrs[i]) {
			bit := len(ri.Sites)
			ri.Sites = append(ri.Sites, DefSite{Instr: i, Reg: d})
			ri.byReg[d] = append(ri.byReg[d], bit)
			siteAt[i] = append(siteAt[i], bit)
		}
	}
	nbits := len(ri.Sites)
	nb := len(cfg.Blocks)
	gen := make([]Bits, nb)
	kill := make([]Bits, nb)
	for b := 0; b < nb; b++ {
		gen[b] = NewBits(nbits)
		kill[b] = NewBits(nbits)
		blk := cfg.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			in := &cfg.Kernel.Instrs[i]
			defs := appendDefs(defBuf[:0], in)
			if in.Guard.IsAlways() {
				// An unconditional def kills every other site of the same
				// register, including earlier gens in this block.
				for _, d := range defs {
					for _, s := range ri.byReg[d] {
						if ri.Sites[s].Instr != i {
							kill[b].Set(s)
							gen[b].Clear(s)
						}
					}
				}
			}
			for _, s := range siteAt[i] {
				gen[b].Set(s)
				kill[b].Clear(s)
			}
		}
	}
	ri.In, ri.Out = Solve(cfg, Problem{
		Dir: Forward, Meet: Union, Bits: nbits, Gen: gen, Kill: kill,
	})
	return ri
}

// ReachingAt returns the definition sites of regspace entry reg that
// reach instruction idx (just before it executes), as instruction
// indices.
func (ri *ReachInfo) ReachingAt(idx int, reg int) []int {
	blk := ri.cfg.BlockOf(idx)
	cur := ri.In[blk.ID].Copy()
	var defBuf [16]int
	for i := blk.Start; i < idx; i++ {
		in := &ri.cfg.Kernel.Instrs[i]
		defs := appendDefs(defBuf[:0], in)
		if in.Guard.IsAlways() {
			for _, d := range defs {
				for _, s := range ri.byReg[d] {
					cur.Clear(s)
				}
			}
		}
		for _, d := range defs {
			for _, s := range ri.byReg[d] {
				if ri.Sites[s].Instr == i {
					cur.Set(s)
				}
			}
		}
	}
	var out []int
	for _, s := range ri.byReg[reg] {
		if cur.Has(s) {
			out = append(out, ri.Sites[s].Instr)
		}
	}
	return out
}

// UninitRead is a read of a register that is not definitely assigned on
// every path from kernel entry.
type UninitRead struct {
	Instr int
	Reg   int // regspace index
	// Merge marks reads that arise from a predicated destination's merge
	// of the old register value rather than a source operand.
	Merge bool
}

// MaybeUninitReads runs the definite-assignment (forward, must) analysis
// and reports every read of a GPR/predicate/CC that is reachable from the
// kernel entry before an unconditional definition on some path. The stack
// pointer is ABI-initialized and considered assigned at entry.
//
// Guarded definitions do not assign definitely — except for a later read
// under the same guard: in if-converted code, @P0 IADD.CC followed by
// @P0 IADD.X executes the def exactly when it executes the read, so the
// pair is tracked block-locally and accepted until the guard predicate is
// redefined.
func MaybeUninitReads(cfg *sass.CFG) []UninitRead {
	instrs := cfg.Kernel.Instrs
	nb := len(cfg.Blocks)
	// Two forward problems share the walk: which registers may have been
	// assigned on some path (any def; a guarded destination merges a real
	// old value only then) and which are assigned on every path
	// (unconditional defs). Both keep block-entry states only; the walk
	// below replays each block's defs from them.
	const condSlots = 2 * (sass.PT + 1) // guards: predicate × negation
	sets := newBitsTable(2*nb+3+condSlots, regSpaceBits)
	mayGen, mustGen := sets[:nb:nb], sets[nb:2*nb:2*nb]
	boundary, maybe, assigned := sets[2*nb], sets[2*nb+1], sets[2*nb+2]
	// cond[g] = registers assigned under guard g since g's predicate was
	// last written (block-local); condLive marks the slots in use.
	cond := sets[2*nb+3:]
	guardSlot := func(g sass.PredGuard) int {
		slot := int(g.Reg&sass.PT) << 1
		if g.Neg {
			slot |= 1
		}
		return slot
	}
	var defBuf, useBuf [16]int
	for b, blk := range cfg.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			for _, d := range appendDefs(defBuf[:0], &instrs[i]) {
				mayGen[b].Set(d)
				if instrs[i].Guard.IsAlways() {
					mustGen[b].Set(d)
				}
			}
		}
	}
	boundary.Set(GPRBit(sass.SP))
	mayIn, _ := Solve(cfg, Problem{
		Dir: Forward, Meet: Union, Bits: regSpaceBits,
		Gen: mayGen, Boundary: boundary,
	})
	mustIn, _ := Solve(cfg, Problem{
		Dir: Forward, Meet: Intersect, Bits: regSpaceBits,
		Gen: mustGen, Boundary: boundary,
	})

	var reads []UninitRead
	for b, blk := range cfg.Blocks {
		maybe.CopyFrom(mayIn[b])
		assigned.CopyFrom(mustIn[b])
		condLive := uint32(0)
		for i := blk.Start; i < blk.End; i++ {
			in := &instrs[i]
			guarded := !in.Guard.IsAlways()
			var condOK Bits
			if slot := guardSlot(in.Guard); guarded && condLive&(1<<slot) != 0 {
				condOK = cond[slot]
			}
			read := func(u int, merge bool) {
				if !assigned.Has(u) && !condOK.Has(u) {
					reads = append(reads, UninitRead{Instr: i, Reg: u, Merge: merge})
				}
			}
			srcUses := appendSrcUses(useBuf[:0], in)
			for _, u := range srcUses {
				read(u, false)
			}
			defs := appendDefs(defBuf[:0], in)
			switch {
			case !guarded:
				for _, d := range defs {
					assigned.Set(d)
				}
			case len(defs) > 0:
				// A predicated destination merges the old register value on
				// inactive lanes, so it counts as a read too — unless the
				// register cannot have been assigned on any path here, in
				// which case the merged-in value is garbage on every lane
				// and no correct program can depend on it.
				for _, d := range defs {
					if maybe.Has(d) {
						read(d, !containsInt(srcUses, d))
					}
				}
				slot := guardSlot(in.Guard)
				if condLive&(1<<slot) == 0 {
					condLive |= 1 << slot
					clear(cond[slot])
				}
				for _, d := range defs {
					cond[slot].Set(d)
				}
			}
			for _, d := range defs {
				maybe.Set(d)
				// A write to a predicate invalidates facts conditional on it.
				if p := d - predBase; d >= predBase && d < ccIndex {
					condLive &^= 3 << (2 * p)
				}
			}
		}
	}
	return reads
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// CheckDefiniteAssignment converts MaybeUninitReads into warning
// diagnostics, deduplicated per (instruction, register).
func CheckDefiniteAssignment(cfg *sass.CFG) []Diagnostic {
	var diags []Diagnostic
	seen := map[UninitRead]bool{}
	for _, r := range MaybeUninitReads(cfg) {
		key := UninitRead{Instr: r.Instr, Reg: r.Reg}
		if seen[key] {
			continue
		}
		seen[key] = true
		what := "read"
		if r.Merge {
			what = "merged (predicated write)"
		}
		diags = append(diags, Diagnostic{
			Sev: Warning, Check: CheckDefAssign, Kernel: cfg.Kernel.Name, Instr: r.Instr,
			Msg: fmt.Sprintf("%s may be %s before assignment", RegSpaceName(r.Reg), what),
		})
	}
	return diags
}
