package analysis

// Symbolic value tracking over tid/ctaid-derived registers: a lightweight
// affine lattice that the concurrency checks (and any future pass) use to
// reason about which registers hold thread-dependent values and whether
// two address expressions computed by *different* threads can overlap.
//
// A tracked value is either Known — an affine form
//
//	Const + Σ coeff·term       term ∈ {tid.x, tid.y, tid.z, laneid}
//	      + Σ coeff·sym        sym  = a CTA-uniform, loop-invariant input
//
// — or Unknown, in which case only a warp uniformity bit survives.
// Symbols name loop-invariant sources whose runtime value is fixed for
// the whole CTA: constant-bank words (kernel parameters) and the
// CTA-uniform special registers (ctaid, ntid, nctaid, smid). Anything
// loop-variant (induction variables, loaded data) joins to Unknown, so a
// disjointness proof can never lean on a value that differs between two
// dynamic executions of the same instruction.
//
// Known over/under-approximations (documented in DESIGN.md):
//   - arithmetic is modeled over unbounded integers, ignoring 32-bit
//     wraparound; address expressions that overflow could defeat a
//     disjointness proof's soundness, but in-window shared offsets never
//     get close;
//   - warp uniformity (the Uniform bit) is coarser than CTA uniformity:
//     SR_WARPID is warp-uniform but thread-varying across the CTA, so it
//     is Unknown-uniform rather than a symbol.

import (
	"sort"

	"sassi/internal/sass"
)

// Term indexes the thread-varying basis of the affine form.
type Term uint8

// Thread-varying terms.
const (
	TermTidX Term = iota
	TermTidY
	TermTidZ
	TermLane
	NumTerms
)

// SymKind discriminates symbol sources.
type SymKind uint8

// Symbol sources.
const (
	// SymCMem is a constant-bank word c[Bank][Off] (kernel parameters).
	SymCMem SymKind = iota
	// SymSReg is a CTA-uniform special register (ctaid, ntid, ...).
	SymSReg
)

// Sym identifies one CTA-uniform, loop-invariant input value.
type Sym struct {
	Kind SymKind
	Bank uint8
	Off  int64
	SR   sass.SpecialReg
}

// Value is one lattice element. The zero value is Unknown and
// (conservatively) not uniform.
type Value struct {
	// Known marks an exact affine form; when false only Uniform applies.
	Known bool
	// Uniform, for Unknown values, records that the value is still
	// provably warp-uniform (every lane of a warp computes the same
	// value). Known values derive uniformity from their Tid coefficients.
	Uniform bool

	Const int64
	Tid   [NumTerms]int64
	// Syms are the symbol terms, sorted by symLess with no zero
	// coefficient (so equal forms have equal slices); nil = none. Values
	// share these slices: they are never written after construction.
	Syms []SymTerm
}

// SymTerm is one coeff·sym term of an affine form.
type SymTerm struct {
	Sym   Sym
	Coeff int64
}

// symLess orders symbols (kind, bank, offset, special register).
func symLess(a, b Sym) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Bank != b.Bank {
		return a.Bank < b.Bank
	}
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	return a.SR < b.SR
}

// KnownConst builds a known constant value.
func KnownConst(c int64) Value { return Value{Known: true, Const: c} }

// unknown builds an Unknown value with the given uniformity.
func unknown(uniform bool) Value { return Value{Uniform: uniform} }

// IsUniform reports warp uniformity: every lane of any warp computes the
// same value.
func (v Value) IsUniform() bool {
	if !v.Known {
		return v.Uniform
	}
	for _, c := range v.Tid {
		if c != 0 {
			return false
		}
	}
	return true
}

// IsConst reports whether the value is a known constant (no tid or symbol
// terms), returning it.
func (v Value) IsConst() (int64, bool) {
	if !v.Known {
		return 0, false
	}
	if v.HasTidTerm() || len(v.Syms) > 0 {
		return 0, false
	}
	return v.Const, true
}

// HasTidTerm reports whether any thread-varying coefficient is nonzero.
func (v Value) HasTidTerm() bool {
	for _, c := range v.Tid {
		if c != 0 {
			return true
		}
	}
	return false
}

// AddConst returns v + c (an address displacement).
func (v Value) AddConst(c int64) Value { return addValues(v, KnownConst(c), false) }

// equalValues reports exact structural equality of two known forms.
func equalValues(a, b Value) bool {
	return a.Const == b.Const && a.Tid == b.Tid && symsEqual(a.Syms, b.Syms)
}

// symsEqual reports whether two symbol-term lists are identical, which is
// also when CTA-uniform symbols cancel between two threads' addresses.
func symsEqual(a, b []SymTerm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// JoinValues is the lattice join: equal known forms survive, everything
// else degrades to Unknown keeping only joint uniformity.
func JoinValues(a, b Value) Value {
	if a.Known && b.Known && equalValues(a, b) {
		return a
	}
	return unknown(a.IsUniform() && b.IsUniform())
}

// addValues returns a+b (or a−b with negB).
func addValues(a, b Value, negB bool) Value {
	if !a.Known || !b.Known {
		return unknown(a.IsUniform() && b.IsUniform())
	}
	sign := int64(1)
	if negB {
		sign = -1
	}
	out := Value{Known: true, Const: a.Const + sign*b.Const, Tid: a.Tid}
	for i := range out.Tid {
		out.Tid[i] += sign * b.Tid[i]
	}
	out.Syms = addSyms(a.Syms, b.Syms, sign)
	return out
}

// addSyms merges two sorted term lists into a + sign·b, dropping terms
// that cancel. An operand without symbols costs nothing: the other list is
// shared, not copied.
func addSyms(a, b []SymTerm, sign int64) []SymTerm {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 && sign == 1 {
		return b
	}
	out := make([]SymTerm, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && symLess(a[i].Sym, b[j].Sym)):
			out = append(out, a[i])
			i++
		case i == len(a) || symLess(b[j].Sym, a[i].Sym):
			out = append(out, SymTerm{b[j].Sym, sign * b[j].Coeff})
			j++
		default:
			if c := a[i].Coeff + sign*b[j].Coeff; c != 0 {
				out = append(out, SymTerm{a[i].Sym, c})
			}
			i++
			j++
		}
	}
	return out
}

// scaleValue returns v*c.
func scaleValue(v Value, c int64) Value {
	if !v.Known {
		return unknown(v.IsUniform())
	}
	if c == 0 {
		return KnownConst(0)
	}
	out := Value{Known: true, Const: v.Const * c, Tid: v.Tid}
	for i := range out.Tid {
		out.Tid[i] *= c
	}
	if len(v.Syms) > 0 {
		out.Syms = make([]SymTerm, 0, len(v.Syms))
		for _, t := range v.Syms {
			if k := t.Coeff * c; k != 0 { // a product can wrap to zero
				out.Syms = append(out.Syms, SymTerm{t.Sym, k})
			}
		}
	}
	return out
}

// mulValues returns a*b when one side is a known constant, otherwise
// Unknown (a product of two symbolic forms is not affine).
func mulValues(a, b Value) Value {
	if c, ok := a.IsConst(); ok {
		return scaleValue(b, c)
	}
	if c, ok := b.IsConst(); ok {
		return scaleValue(a, c)
	}
	return unknown(a.IsUniform() && b.IsUniform())
}

// PredFacts is the tracked state of one predicate register.
type PredFacts struct {
	// Uniform: every lane of a warp holds the same predicate value.
	Uniform bool
	// TidDep: the predicate provably compares thread-varying values
	// (a compare whose operand difference carries a tid/lane term), so
	// with more than one thread per relevant dimension it WILL diverge.
	// Used only to grade severity; false means "not proven", not
	// "independent".
	TidDep bool
	// EqZero, when non-nil, is an affine form whose zero the predicate
	// implies: P true ⟹ EqZero(tid) == 0. Recorded for ISETP.EQ with an
	// AND combine (the result implies the compare holds) and dropped on
	// any merge or redefinition that cannot preserve it exactly. Feeds
	// SingleThreadZero: a guard whose zero set is a single thread proves
	// the guarded instruction executes on at most one thread.
	EqZero *Value
}

// valState is the abstract machine state at one program point.
type valState struct {
	// regs is indexed by GPR number and sized to the kernel's highest
	// written register; the zero Value (Unknown, non-uniform) is what an
	// unwritten register holds — entry garbage is per-thread.
	regs []Value
	pred [sass.NumPred + 1]PredFacts
	cc   bool // condition-code warp uniformity

	// Predication view: ptxas if-converts short branches into runs of
	// instructions under one guard (@P0 SHL; @P0 IADD; @P0 STS). The
	// main lattice must join a guarded def with the old value (later
	// unguarded uses see either), but a later use under the SAME guard
	// executes only when the def did, so it sees the def exactly. g is
	// the current guard run; gregs (nil: no run) holds the exact values
	// defined under it, indexed like regs with the zero Value for "not
	// defined in this run" — a def that is itself the zero Value leaves
	// the zero Value in regs too, so falling through reads the same.
	// The view is consulted when viewG is set and is transient: it resets
	// when the guard changes, its predicate is redefined, or states merge.
	g     sass.PredGuard
	gregs []Value
	gbuf  []Value // gregs' storage, kept across runs
	viewG bool
}

// reset makes s the kernel-entry state: every register Unknown and not
// uniform (register file garbage is per-thread), PT uniform.
func (s *valState) reset() {
	clear(s.regs)
	s.pred = [sass.NumPred + 1]PredFacts{}
	s.pred[sass.PT] = PredFacts{Uniform: true}
	s.cc = false
	s.dropGuardView()
}

// copyFrom overwrites s with o's main lattice. Only view-free states are
// ever copied (block-entry states and the fixpoint's block-exit state).
func (s *valState) copyFrom(o *valState) {
	copy(s.regs, o.regs)
	s.pred, s.cc = o.pred, o.cc
	s.dropGuardView()
}

// dropGuardView discards the predication view.
func (s *valState) dropGuardView() {
	s.g = sass.Always
	s.gregs = nil
	s.viewG = false
}

// startGuardView opens an empty predication view for guard g.
func (s *valState) startGuardView(g sass.PredGuard) {
	if s.gbuf == nil {
		s.gbuf = make([]Value, len(s.regs))
	}
	clear(s.gbuf)
	s.g, s.gregs = g, s.gbuf
}

// reg reads a register's tracked value; RZ is the constant 0. Under an
// active guard view, defs made under the same guard take precedence.
func (s *valState) reg(r uint8) Value {
	if r == sass.RZ {
		return KnownConst(0)
	}
	if int(r) >= len(s.regs) {
		return unknown(false) // never written
	}
	if s.viewG {
		if v := s.gregs[r]; v.Known || v.Uniform {
			return v
		}
	}
	return s.regs[r]
}

func (s *valState) setReg(r uint8, v Value) {
	if r == sass.RZ {
		return
	}
	s.regs[r] = v
}

// mergeFrom joins o into s and applies divMask (degrade), reporting
// change.
func (s *valState) mergeFrom(o *valState, divMask Bits) bool {
	changed := s.joinFrom(o)
	return s.degrade(divMask) || changed
}

// joinFrom joins o into s, reporting change.
func (s *valState) joinFrom(o *valState) bool {
	changed := false
	// Merged states have different guard histories: drop the view.
	s.dropGuardView()
	for r, cur := range s.regs {
		if nv := JoinValues(cur, o.regs[r]); !sameLattice(cur, nv) {
			s.regs[r] = nv
			changed = true
		}
	}
	for p := range s.pred {
		if uint8(p) == sass.PT {
			continue
		}
		n := PredFacts{
			Uniform: s.pred[p].Uniform && o.pred[p].Uniform,
			TidDep:  s.pred[p].TidDep && o.pred[p].TidDep,
		}
		// EqZero survives a merge only when both paths imply the same
		// zero form (keep s's pointer so an unchanged merge is a no-op
		// for the fixpoint's change detection).
		if se, oe := s.pred[p].EqZero, o.pred[p].EqZero; se != nil && oe != nil && equalValues(*se, *oe) {
			n.EqZero = se
		}
		if n != s.pred[p] {
			s.pred[p] = n
			changed = true
		}
	}
	if ncc := s.cc && o.cc; s.cc != ncc {
		s.cc = ncc
		changed = true
	}
	return changed
}

// degrade applies a merge mask to a joined state, reporting change.
// divMask, when non-nil, is the regspace set possibly assigned under a
// divergent branch whose paths reconverge at this merge: a masked value
// that the join cannot prove identical in all threads (anything
// non-Known) loses warp uniformity, because which definition a thread
// holds depends on the divergent path it took. Equal Known forms are
// exempt — every thread then holds the same affine function of its own
// tid regardless of path.
func (s *valState) degrade(divMask Bits) bool {
	if divMask == nil {
		return false
	}
	changed := false
	for r := range s.regs {
		if v := &s.regs[r]; !v.Known && v.Uniform && divMask.Has(GPRBit(uint8(r))) {
			v.Uniform = false
			changed = true
		}
	}
	for p := range s.pred {
		if f := &s.pred[p]; uint8(p) != sass.PT && f.Uniform && divMask.Has(PredBit(uint8(p))) {
			f.Uniform = false
			changed = true
		}
	}
	if s.cc && divMask.Has(CCBit()) {
		s.cc = false
		changed = true
	}
	return changed
}

// sameLattice reports lattice-element equality (not just uniform bits).
func sameLattice(a, b Value) bool {
	if a.Known != b.Known {
		return false
	}
	if !a.Known {
		return a.Uniform == b.Uniform
	}
	return equalValues(a, b)
}

// Valuation is the result of the value analysis (KernelFacts.Values). It
// keeps the fixpoint's state at every basic-block entry and answers a
// query at instruction idx by replaying the block's transfer functions up
// to idx: from where the previous query stopped when that is earlier in
// the same block (so ascending queries cost one transfer per instruction
// in total), from the block entry otherwise. Queries move that cursor:
// one Valuation must not be queried from two goroutines at once.
type Valuation struct {
	cfg     *sass.CFG
	blockIn []valState // state at each block's entry
	cur     *valState  // replay cursor: the state just before instruction pos
	pos     int
}

// at returns the state just before instruction idx. The result is the
// cursor itself, valid until the next query.
func (v *Valuation) at(idx int) *valState {
	if blk := v.cfg.BlockOf(idx); v.pos > idx || v.pos < blk.Start {
		v.cur.copyFrom(&v.blockIn[blk.ID])
		v.pos = blk.Start
	}
	for ; v.pos < idx; v.pos++ {
		transferValues(v.cur, &v.cfg.Kernel.Instrs[v.pos])
	}
	v.cur.viewG = false
	return v.cur
}

// viewAt is at with the predication view switched on when idx is guarded
// by the guard run in force: its reads observe earlier same-guard defs
// exactly rather than the may-not-execute join in the main lattice.
func (v *Valuation) viewAt(idx int) *valState {
	s := v.at(idx)
	g := v.cfg.Kernel.Instrs[idx].Guard
	s.viewG = !g.IsAlways() && s.gregs != nil && s.g == g
	return s
}

// analyzeValues runs the forward value/uniformity analysis to a fixed
// point over f's CFG.
//
// Uniformity is control-dependence-aware: path-insensitive joins alone
// would either overclaim (two per-path constants merged under a
// tid-dependent branch are NOT uniform) or destroy loop-counter
// uniformity (forcing every differing merge non-uniform). Instead, an
// outer loop finds each conditional branch whose guard is currently
// non-uniform, computes its divergence region from the post-dominator
// tree, and marks every reconvergence/merge point with the regspace set
// possibly assigned inside the region; the inner fixpoint then degrades
// exactly those merges. Non-uniform facts only grow, so the nesting
// terminates. Each inner fixpoint after the first starts from the one
// before it (valSolver.warm; DESIGN.md "Value lattice").
func analyzeValues(f *KernelFacts) *Valuation {
	s := newValSolver(f.CFG)
	d := newDivergence(f)
	s.cold(d.mask)
	v := &Valuation{cfg: f.CFG, blockIn: s.in, cur: s.st, pos: -1}
	for {
		grown := d.grow(v)
		if len(grown) == 0 {
			return v
		}
		s.warm(d.mask, grown)
		v.pos = -1 // the solve ran over the cursor
	}
}

// valSolver is the inner fixpoint's storage: every block's entry state,
// their register files slices of one array, allocated once per analysis
// and reused by every divergence pass.
type valSolver struct {
	cfg *sass.CFG
	in  []valState
	// reached: a state has arrived at the block (the entry's from the
	// start); merged: a second one has been joined into it, so its merge
	// mask applies. Unreached blocks keep the entry state.
	reached, merged []bool
	queued          []bool
	queue           []int // ring of the queued blocks, FIFO
	head, n         int
	st              *valState // block-exit scratch; the Valuation's cursor
}

func newValSolver(cfg *sass.CFG) *valSolver {
	nregs := 0
	var buf [8]uint8
	for i := range cfg.Kernel.Instrs {
		for _, r := range cfg.Kernel.Instrs[i].AppendGPRDsts(buf[:0]) {
			if r != sass.RZ && int(r) >= nregs {
				nregs = int(r) + 1
			}
		}
	}
	nb := len(cfg.Blocks)
	regs := make([]Value, (nb+1)*nregs)
	flags := make([]bool, 3*nb)
	s := &valSolver{
		cfg:     cfg,
		in:      make([]valState, nb),
		reached: flags[:nb:nb], merged: flags[nb : 2*nb : 2*nb], queued: flags[2*nb:],
		queue: make([]int, nb),
		st:    &valState{regs: regs[nb*nregs:]},
	}
	for b := range s.in {
		s.in[b].regs = regs[b*nregs : (b+1)*nregs : (b+1)*nregs]
	}
	return s
}

// push queues block b unless it is queued.
func (s *valSolver) push(b int) {
	if !s.queued[b] {
		s.queued[b] = true
		s.queue[(s.head+s.n)%len(s.queue)] = b
		s.n++
	}
}

// cold solves from scratch under the merge masks divMask: the entry block
// starts with the entry state, every other block unreached until its
// first predecessor's state arrives, which it takes wholesale.
func (s *valSolver) cold(divMask []Bits) {
	for b := range s.in {
		s.in[b].reset()
	}
	clear(s.reached)
	clear(s.merged)
	s.reached[0] = true
	s.push(0)
	s.run(divMask)
}

// warm solves under divMask starting from the fixpoint under smaller
// masks that s holds, after the masks of the grown blocks grew. Masks only
// grow, so that fixpoint lies below the new one: the grown blocks into
// which a merge has already joined states take their new mask now, as
// their next merge would, and are re-queued when it changes them; the
// worklist carries the change on from there.
func (s *valSolver) warm(divMask []Bits, grown []int) {
	for _, b := range grown {
		if s.merged[b] && s.in[b].degrade(divMask[b]) {
			s.push(b)
		}
	}
	s.run(divMask)
}

// run drains the worklist.
func (s *valSolver) run(divMask []Bits) {
	st := s.st
	for s.n > 0 {
		b := s.queue[s.head]
		s.head = (s.head + 1) % len(s.queue)
		s.n--
		s.queued[b] = false
		blk := s.cfg.Blocks[b]
		st.copyFrom(&s.in[b])
		for i := blk.Start; i < blk.End; i++ {
			transferValues(st, &s.cfg.Kernel.Instrs[i])
		}
		// The predication view is an intra-block device: block-entry
		// states never carry one (it also keeps the fixpoint's
		// change-detection, which compares only the main lattice, sound).
		st.dropGuardView()
		for _, sc := range blk.Succs {
			changed := true
			if !s.reached[sc] {
				s.reached[sc] = true
				s.in[sc].copyFrom(st)
			} else {
				s.merged[sc] = true
				changed = s.in[sc].mergeFrom(st, divMask[sc])
			}
			if changed {
				s.push(sc)
			}
		}
	}
}

// divergence is the outer loop's state: each block's merge mask, and the
// conditional branches whose regions the masks already hold (a branch the
// valuation once found divergent stays so: non-uniform facts only grow).
type divergence struct {
	f    *KernelFacts
	mask []Bits // per block; all nil until the first divergent branch
	done Bits   // per instruction
	// Scratch of grow and region.
	grew, visited, merge Bits // per block
	assigned             Bits // regspace
	queue, grown         []int
}

func newDivergence(f *KernelFacts) *divergence {
	return &divergence{
		f:    f,
		mask: make([]Bits, len(f.CFG.Blocks)),
		done: NewBits(len(f.CFG.Kernel.Instrs)),
	}
}

// grow extends the merge masks with the assigned-under-divergence sets of
// every conditional branch whose guard the current valuation cannot prove
// warp-uniform, returning the blocks whose mask grew, ascending (reused by
// the next call).
func (d *divergence) grow(v *Valuation) []int {
	cfg := d.f.CFG
	nb := len(cfg.Blocks)
	d.grown = d.grown[:0]
	for b, blk := range cfg.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			in := &cfg.Kernel.Instrs[i]
			if !in.IsCondBranch() || d.done.Has(i) || v.GuardFacts(i).Uniform {
				continue
			}
			d.done.Set(i)
			if d.assigned == nil {
				// Most kernels have no divergent branch.
				masks := newBitsTable(nb+1, regSpaceBits)
				copy(d.mask, masks)
				d.assigned = masks[nb]
				scratch := newBitsTable(3, nb)
				d.grew, d.visited, d.merge = scratch[0], scratch[1], scratch[2]
			}
			d.region(b)
			for mb := range nb {
				if d.merge.Has(mb) && d.mask[mb].Union(d.assigned) {
					d.grew.Set(mb)
				}
			}
		}
	}
	for b := range nb {
		if d.grew.Has(b) {
			d.grown = append(d.grown, b)
			d.grew.Clear(b)
		}
	}
	return d.grown
}

// region walks the blocks on paths between branch block b and its
// reconvergence (strict post-dominators of b), leaving in d.assigned the
// regspace set they may assign and in d.merge the merge points that need
// divergence-aware joins: the reconvergence blocks themselves and any
// multi-predecessor block inside the region (a loop head whose latch
// diverges, an inner join).
func (d *divergence) region(b int) {
	cfg := d.f.CFG
	stop := d.f.postDominators()[b]
	clear(d.visited)
	clear(d.merge)
	clear(d.assigned)
	queue := d.queue[:0]
	expand := func(from int) {
		for _, s := range cfg.Blocks[from].Succs {
			if s != b && stop.Has(s) {
				d.merge.Set(s)
				continue
			}
			if !d.visited.Has(s) {
				d.visited.Set(s)
				queue = append(queue, s)
			}
		}
	}
	expand(b)
	var defBuf [16]int
	for next := 0; next < len(queue); next++ {
		n := queue[next]
		rblk := cfg.Blocks[n]
		if len(rblk.Preds) >= 2 {
			d.merge.Set(n)
		}
		for j := rblk.Start; j < rblk.End; j++ {
			for _, r := range appendDefs(defBuf[:0], &cfg.Kernel.Instrs[j]) {
				d.assigned.Set(r)
			}
		}
		expand(n)
	}
	d.queue = queue
}

// RegValue returns the tracked value of GPR r as instruction idx reads
// it: when idx is guarded and r was defined earlier under the same
// guard, the read observes that definition exactly (the predication
// view) rather than the may-not-execute join in the main lattice.
func (v *Valuation) RegValue(idx int, r uint8) Value { return v.viewAt(idx).reg(r) }

// PredAt returns the tracked facts of predicate p just before idx.
func (v *Valuation) PredAt(idx int, p uint8) PredFacts { return v.at(idx).pred[p] }

// GuardFacts returns the facts of instruction idx's guard predicate; an
// unguarded instruction is uniform.
func (v *Valuation) GuardFacts(idx int) PredFacts {
	g := v.cfg.Kernel.Instrs[idx].Guard
	if g.IsAlways() {
		return PredFacts{Uniform: true}
	}
	return v.at(idx).pred[g.Reg]
}

func operandValue(s *valState, o sass.Operand) Value {
	switch o.Kind {
	case sass.OpdReg:
		return s.reg(o.Reg)
	case sass.OpdImm:
		return KnownConst(o.Imm)
	case sass.OpdCMem:
		return Value{Known: true, Syms: []SymTerm{{Sym{Kind: SymCMem, Bank: o.Bank, Off: o.Imm}, 1}}}
	case sass.OpdSReg:
		return sregValue(o.SR)
	default:
		return unknown(false)
	}
}

func sregValue(sr sass.SpecialReg) Value {
	switch sr {
	case sass.SRTidX:
		return tidTerm(TermTidX)
	case sass.SRTidY:
		return tidTerm(TermTidY)
	case sass.SRTidZ:
		return tidTerm(TermTidZ)
	case sass.SRLaneID:
		return tidTerm(TermLane)
	case sass.SRCtaidX, sass.SRCtaidY, sass.SRCtaidZ,
		sass.SRNTidX, sass.SRNTidY, sass.SRNTidZ,
		sass.SRNCtaidX, sass.SRNCtaidY, sass.SRNCtaidZ, sass.SRSMID:
		return Value{Known: true, Syms: []SymTerm{{Sym{Kind: SymSReg, SR: sr}, 1}}}
	case sass.SRWarpID:
		// Warp-uniform but thread-varying across the CTA: must not become
		// a symbol (symbols cancel across threads in disjointness proofs).
		return unknown(true)
	default: // SR_CLOCK and friends
		return unknown(false)
	}
}

func tidTerm(t Term) Value {
	v := Value{Known: true}
	v.Tid[t] = 1
	return v
}

// srcsUniform reports whether every source value and predicate of the
// instruction is warp-uniform (including carry-in when used).
func srcsUniform(s *valState, in *sass.Instruction) bool {
	for _, o := range in.Srcs {
		switch o.Kind {
		case sass.OpdReg, sass.OpdImm, sass.OpdCMem, sass.OpdSReg:
			if !operandValue(s, o).IsUniform() {
				return false
			}
		case sass.OpdMem:
			if !s.reg(o.Reg).IsUniform() {
				return false
			}
		}
		if o.Kind == sass.OpdPred && !s.pred[o.Reg].Uniform {
			return false
		}
	}
	if in.Mods.X && !s.cc {
		return false
	}
	return true
}

// transferValues applies one instruction's effect to the state in place.
func transferValues(s *valState, in *sass.Instruction) {
	guard := in.Guard
	guardU := guard.IsAlways() || s.pred[guard.Reg].Uniform

	// Predication view management: sources of a guarded instruction see
	// the exact values defined earlier under the same guard.
	if guard.IsAlways() {
		s.viewG = false
	} else {
		if s.gregs == nil || s.g != guard {
			s.startGuardView(guard)
		}
		s.viewG = true
	}

	// Compute the would-be destination value for single-GPR writers.
	var dstBuf [8]uint8
	gprDsts := in.AppendGPRDsts(dstBuf[:0])
	var nv Value
	computed := false
	if len(gprDsts) == 1 {
		nv, computed = computeValue(s, in)
	}

	// Apply GPR writes.
	for _, r := range gprDsts {
		var out Value
		if computed {
			out = nv
		} else {
			// Multi-register (64-bit) or unmodeled writer: keep only
			// uniformity derived from the sources — except loads and
			// shuffles, whose data can differ per lane regardless of a
			// uniform address (another SM may write concurrently).
			u := srcsUniform(s, in)
			if (in.Op.IsMem() && in.Op != sass.OpLDC) || in.Op == sass.OpSHFL {
				u = false
			}
			out = unknown(u)
		}
		if !guard.IsAlways() {
			// Record the exact under-guard value for same-guard uses,
			// then fold the may-not-execute join into the main lattice.
			if r != sass.RZ {
				s.gregs[r] = out
			}
			s.viewG = false // the join below reads the unpredicated value
			old := s.reg(r)
			s.viewG = true
			out = JoinValues(old, out)
			if !out.Known && !guardU {
				out.Uniform = false
			}
		} else if s.gregs != nil {
			// An unguarded def holds under any guard.
			if r != sass.RZ {
				s.gregs[r] = out
			}
		}
		s.setReg(r, out)
	}
	s.viewG = false

	// Predicate writes.
	if pd := in.PredDsts(); len(pd) > 0 {
		nf := predResult(s, in)
		for di, p := range pd {
			f := nf
			if di > 0 {
				// A second destination holds the complement: uniformity
				// facts carry over, but EqZero describes only the primary.
				f.EqZero = nil
			}
			if !guard.IsAlways() {
				// Guarded write: the predicate may keep its old value, so
				// only facts both values share survive (EqZero would need
				// the old zero form, which we no longer have).
				old := s.pred[p]
				f = PredFacts{
					Uniform: f.Uniform && old.Uniform && guardU,
					TidDep:  f.TidDep && old.TidDep,
				}
			}
			s.pred[p] = f
			// Redefining the guard predicate of the active predication
			// view invalidates the view.
			if s.gregs != nil && p == s.g.Reg {
				s.dropGuardView()
			}
		}
	}

	// R2P scatters register bits into predicates under a mask: degrade
	// every predicate's facts by the source's uniformity.
	if in.Op == sass.OpR2P {
		u := srcsUniform(s, in)
		for p := range s.pred {
			if uint8(p) == sass.PT {
				continue
			}
			s.pred[p] = PredFacts{Uniform: s.pred[p].Uniform && u}
		}
		s.dropGuardView()
	}

	// Condition code.
	if in.Mods.SetCC {
		u := srcsUniform(s, in)
		if !guard.IsAlways() {
			u = u && s.cc && guardU
		}
		s.cc = u
	}
}

// computeValue models one single-destination instruction, returning the
// new destination value.
func computeValue(s *valState, in *sass.Instruction) (Value, bool) {
	src := func(i int) Value {
		if i >= len(in.Srcs) {
			return unknown(false)
		}
		return operandValue(s, in.Srcs[i])
	}
	switch in.Op {
	case sass.OpMOV:
		return src(0), true
	case sass.OpMOV32:
		return src(0), true
	case sass.OpS2R:
		return src(0), true
	case sass.OpIADD:
		if in.Mods.X {
			// Carry-in from CC: not affine-trackable.
			return unknown(srcsUniform(s, in)), true
		}
		return addValues(src(0), src(1), in.Mods.NegB), true
	case sass.OpIADD32:
		return addValues(src(0), src(1), false), true
	case sass.OpIMUL:
		return mulValues(src(0), src(1)), true
	case sass.OpIMAD:
		return addValues(mulValues(src(0), src(1)), src(2), false), true
	case sass.OpISCADD:
		if sh, ok := src(2).IsConst(); ok && sh >= 0 && sh < 32 {
			return addValues(scaleValue(src(0), 1<<uint(sh)), src(1), false), true
		}
		return unknown(srcsUniform(s, in)), true
	case sass.OpSHL:
		if sh, ok := src(1).IsConst(); ok && sh >= 0 && sh < 32 {
			return scaleValue(src(0), 1<<uint(sh)), true
		}
		return unknown(srcsUniform(s, in)), true
	case sass.OpSHR:
		if a, ok := src(0).IsConst(); ok {
			if sh, ok2 := src(1).IsConst(); ok2 && sh >= 0 && sh < 32 {
				if in.Mods.Unsigned {
					return KnownConst(int64(uint32(a) >> uint(sh))), true
				}
				return KnownConst(int64(int32(a) >> uint(sh))), true
			}
		}
		return unknown(srcsUniform(s, in)), true
	case sass.OpLOP:
		if in.Mods.Logic == sass.LogicPASS {
			return src(1), true
		}
		if a, ok := src(0).IsConst(); ok {
			if b, ok2 := src(1).IsConst(); ok2 {
				switch in.Mods.Logic {
				case sass.LogicAND:
					return KnownConst(int64(uint32(a) & uint32(b))), true
				case sass.LogicOR:
					return KnownConst(int64(uint32(a) | uint32(b))), true
				case sass.LogicXOR:
					return KnownConst(int64(uint32(a) ^ uint32(b))), true
				}
			}
		}
		return unknown(srcsUniform(s, in)), true
	case sass.OpLDC:
		// Constant memory is immutable for the launch: uniform iff the
		// address is, but the loaded word itself is not tracked.
		return unknown(srcsUniform(s, in)), true
	case sass.OpVOTE:
		// Warp collectives produce the same value in every lane.
		return unknown(true), true
	case sass.OpLD, sass.OpLDG, sass.OpLDL, sass.OpLDS, sass.OpTLD,
		sass.OpATOM, sass.OpATOMS, sass.OpSHFL:
		// Loaded/shuffled data: other warps may race with it, so not even
		// a uniform address yields a provably uniform value.
		return unknown(false), true
	case sass.OpSEL, sass.OpIMNMX, sass.OpFMNMX:
		return unknown(srcsUniform(s, in)), true
	default:
		if in.Op.IsNumeric() {
			return unknown(srcsUniform(s, in)), true
		}
		return unknown(false), true
	}
}

// predResult models a predicate-writing instruction's facts.
func predResult(s *valState, in *sass.Instruction) PredFacts {
	switch in.Op {
	case sass.OpISETP, sass.OpFSETP:
		f := PredFacts{Uniform: srcsUniform(s, in)}
		if in.Op == sass.OpISETP && len(in.Srcs) >= 2 {
			a := operandValue(s, in.Srcs[0])
			b := operandValue(s, in.Srcs[1])
			if a.Known && b.Known {
				d := addValues(a, b, true)
				f.TidDep = d.HasTidTerm()
				// With an AND combine (the default) the result implies
				// the compare holds, so P ⟹ (a − b) == 0.
				if in.Mods.Cmp == sass.CmpEQ && in.Mods.Logic == sass.LogicAND {
					f.EqZero = &d
				}
			}
		}
		return f
	case sass.OpPSETP:
		u := true
		dep := true
		for _, o := range in.Srcs {
			if o.Kind == sass.OpdPred && o.Reg != sass.PT {
				u = u && s.pred[o.Reg].Uniform
				dep = dep && s.pred[o.Reg].TidDep
			}
		}
		return PredFacts{Uniform: u, TidDep: dep}
	case sass.OpVOTE:
		return PredFacts{Uniform: true}
	default:
		return PredFacts{Uniform: srcsUniform(s, in)}
	}
}

// BlockDims is a launch block-dimension hint for cross-thread
// disjointness proofs (the analog of __launch_bounds__: the compiler may
// know the CTA shape statically). Zero dims mean unknown.
type BlockDims struct{ X, Y, Z int }

// extent returns the trip count of each thread-varying term under the
// hint (lane spans a full warp).
func (d BlockDims) extent(t Term) int {
	switch t {
	case TermTidX:
		return d.X
	case TermTidY:
		return d.Y
	case TermTidZ:
		return d.Z
	default:
		return 32
	}
}

// Valid reports whether the hint is usable.
func (d BlockDims) Valid() bool { return d.X > 0 && d.Y > 0 && d.Z > 0 }

// DisjointAcrossThreads proves, if it can, that the byte ranges
// [a, a+wa) and [b, b+wb), computed by two *different* threads of the
// same CTA, never overlap. dims bounds the thread-index ranges; without a
// valid hint only thread-invariant separations are provable. A false
// return means "not proven", never "they overlap".
func DisjointAcrossThreads(a Value, wa int, b Value, wb int, dims BlockDims) bool {
	if !a.Known || !b.Known || wa <= 0 || wb <= 0 {
		return false
	}
	// CTA-uniform symbols take the same runtime value for both threads,
	// so they cancel — but only when the coefficients match exactly.
	if !symsEqual(a.Syms, b.Syms) {
		return false
	}
	dc := a.Const - b.Const // D = addrA(t1) − addrB(t2) at tid zero

	if !a.HasTidTerm() && !b.HasTidTerm() {
		// Thread-invariant separation: D is the constant dc.
		return dc >= int64(wb) || dc <= -int64(wa)
	}
	if !dims.Valid() {
		return false
	}

	// Interval test over independent t1, t2 ∈ dims:
	// D = dc + Σ a_t·t1_t − Σ b_t·t2_t.
	lo, hi := dc, dc
	for t := Term(0); t < NumTerms; t++ {
		span := int64(dims.extent(t) - 1)
		addRange := func(c int64) {
			if c >= 0 {
				hi += c * span
			} else {
				lo += c * span
			}
		}
		addRange(a.Tid[t])
		addRange(-b.Tid[t])
	}
	if lo >= int64(wb) || hi <= -int64(wa) {
		return true
	}

	// Injectivity test: identical affine forms evaluated at *distinct*
	// thread indices land at least an access width apart.
	if dc != 0 || a.Tid != b.Tid {
		return false
	}
	w := int64(wa)
	if int64(wb) > w {
		w = int64(wb)
	}
	return injectiveOverThreads(a, w, dims)
}

// DisjointSameThread proves, if it can, that the byte ranges [a, a+wa)
// and [b, b+wb), computed by the *same* thread, never overlap. It is the
// same-thread companion of DisjointAcrossThreads: the instruction
// scheduler may swap two memory accesses of one thread only when they are
// disjoint for every thread pair, including t1 == t2 — which
// DisjointAcrossThreads deliberately excludes. CTA-uniform symbols cancel
// when their coefficients match; the remaining difference
// D(t) = dc + Σ (a_t − b_t)·t_t is interval-tested over one shared thread
// index. A false return means "not proven", never "they overlap".
func DisjointSameThread(a Value, wa int, b Value, wb int, dims BlockDims) bool {
	if !a.Known || !b.Known || wa <= 0 || wb <= 0 {
		return false
	}
	if !symsEqual(a.Syms, b.Syms) {
		return false
	}
	dc := a.Const - b.Const
	if a.Tid == b.Tid {
		// Tid terms cancel for a shared thread index: D is constant.
		return dc >= int64(wb) || dc <= -int64(wa)
	}
	if !dims.Valid() {
		return false
	}
	lo, hi := dc, dc
	for t := Term(0); t < NumTerms; t++ {
		c := a.Tid[t] - b.Tid[t]
		span := int64(dims.extent(t) - 1)
		if c >= 0 {
			hi += c * span
		} else {
			lo += c * span
		}
	}
	return lo >= int64(wb) || hi <= -int64(wa)
}

// injectiveOverThreads proves, if it can, that the affine form v evaluated
// at two *distinct* thread indices of a CTA shaped dims always yields
// values at least w apart. Requires every multi-extent dimension to
// participate and the sorted coefficients to form a mixed radix whose
// strides exceed w. The lane term cannot distinguish threads (two threads
// can share a lane), so it must be absent.
func injectiveOverThreads(v Value, w int64, dims BlockDims) bool {
	if !v.Known || !dims.Valid() || v.Tid[TermLane] != 0 {
		return false
	}
	type dim struct {
		coeff int64
		ext   int64
	}
	var ds []dim
	for t := TermTidX; t <= TermTidZ; t++ {
		ext := int64(dims.extent(t))
		if ext <= 1 {
			continue // this dimension never differs between threads
		}
		c := v.Tid[t]
		if c < 0 {
			c = -c
		}
		if c == 0 {
			// Two threads differing only here collide exactly.
			return false
		}
		ds = append(ds, dim{coeff: c, ext: ext})
	}
	if len(ds) == 0 {
		return false // no thread-distinguishing dimension at all
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].coeff < ds[j].coeff })
	span := int64(0) // max reach of already-covered dimensions, width included
	for _, d := range ds {
		if d.coeff < span+w {
			return false
		}
		span += d.coeff * (d.ext - 1)
	}
	return true
}

// SingleThreadZero proves, if it can, that at most one thread of a CTA
// shaped dims satisfies diff == 0: the form is injective over threads (at
// unit width), so its zero — if any thread hits it — is unique.
// CTA-uniform symbols shift every thread's value identically and do not
// disturb injectivity. This refines guarded shared-memory accesses: a site
// guarded by such a predicate (the @P0 of the classic `if (tid == 0)`
// idiom) executes on at most one thread and cannot race with itself.
func SingleThreadZero(diff Value, dims BlockDims) bool {
	return diff.Known && diff.HasTidTerm() && injectiveOverThreads(diff, 1, dims)
}

// EqualValues reports whether two known affine forms are structurally
// identical (same constant, tid coefficients, and symbol terms).
func EqualValues(a, b Value) bool {
	return a.Known && b.Known && equalValues(a, b)
}
