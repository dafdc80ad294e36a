package analysis

import "sassi/internal/sass"

// LiveInfo holds the per-instruction liveness results for a kernel.
type LiveInfo struct {
	// LiveIn[i] is the set of GPRs live immediately before instruction i.
	LiveIn []sass.RegSet
	// PredLiveIn[i] is the set of predicate registers live before i.
	PredLiveIn []sass.PredSet
	// CCLiveIn[i] reports whether the condition code is live before i.
	CCLiveIn []bool
}

// Liveness computes, per instruction, which GPRs, predicates and CC are
// live: may be read before being overwritten on some path. SASSI spills
// exactly this state at each instrumentation site — "the compiler knows
// exactly which registers to spill" (§3.2).
//
// A guarded definition is partial: the old value survives on inactive
// lanes, so it does not kill, and the merged-in old value counts as a read
// — but only where the register may already have been assigned on some
// path (mayAssigned). Without that refinement, an if-converted body's
// temporaries, first written under a predicate, would be live all the way
// back to kernel entry, and every site before them would spill garbage.
//
// The CFG carries no call edges, so everything is live at the end of a
// block ending in CAL (the callee may read anything) or RET (the return
// continuation is unknown). Only hand-authored call trees contain these
// ops; compiled kernels are unaffected.
func Liveness(cfg *sass.CFG) *LiveInfo {
	n, nb := len(cfg.Kernel.Instrs), len(cfg.Blocks)
	w := &liveWalk{instrs: cfg.Kernel.Instrs, mayIn: mayAssigned(cfg)}
	sets := newBitsTable(2*nb+1, regSpaceBits)
	gen, kill, all := sets[:nb:nb], sets[nb:2*nb:2*nb], sets[2*nb]
	all.Fill(regSpaceBits)
	allLiveAtEnd := func(blk *sass.Block) bool {
		op := cfg.Kernel.Instrs[blk.End-1].Op
		return op == sass.OpCAL || op == sass.OpRET
	}
	for b, blk := range cfg.Blocks {
		if allLiveAtEnd(blk) {
			// IN = Gen ∪ (OUT − Kill) ignores OUT: Gen is what the block
			// leaves live from an all-live exit.
			gen[b].CopyFrom(all)
			kill[b].CopyFrom(all)
		}
		w.block(blk, gen[b], kill[b], nil)
	}
	_, out := Solve(cfg, Problem{
		Dir: Backward, Meet: Union, Bits: regSpaceBits, Gen: gen, Kill: kill,
	})
	li := &LiveInfo{
		LiveIn:     make([]sass.RegSet, n),
		PredLiveIn: make([]sass.PredSet, n),
		CCLiveIn:   make([]bool, n),
	}
	for b, blk := range cfg.Blocks {
		if allLiveAtEnd(blk) {
			out[b].CopyFrom(all)
		}
		w.block(blk, out[b], nil, li)
	}
	return li
}

// liveWalk applies the liveness transfer function backward over a block.
type liveWalk struct {
	instrs []sass.Instruction
	mayIn  []Bits
	// defsBefore[r] counts the definitions of regspace entry r in the
	// walked block before the visited instruction; all zero between walks.
	defsBefore [regSpaceBits]int32
}

// block turns live, the state on exit from blk, into the state on entry
// to blk, one instruction at a time from the last: an unconditional
// definition kills, then the instruction's sources and the merged-in old
// value of each guarded definition that may already be assigned are read.
// Each unconditional definition is also added to kill, if kill is non-nil,
// and each instruction's live-in state is stored in li, if li is non-nil.
func (w *liveWalk) block(blk *sass.Block, live, kill Bits, li *LiveInfo) {
	var defBuf, useBuf [16]int
	for i := blk.Start; i < blk.End; i++ {
		for _, d := range appendDefs(defBuf[:0], &w.instrs[i]) {
			w.defsBefore[d]++
		}
	}
	for i := blk.End - 1; i >= blk.Start; i-- {
		in := &w.instrs[i]
		defs := appendDefs(defBuf[:0], in)
		for _, d := range defs {
			w.defsBefore[d]--
		}
		for _, d := range defs {
			switch {
			case in.Guard.IsAlways():
				live.Clear(d)
				if kill != nil {
					kill.Set(d)
				}
			case w.defsBefore[d] > 0 || w.mayIn[blk.ID].Has(d):
				live.Set(d)
			}
		}
		for _, u := range appendSrcUses(useBuf[:0], in) {
			live.Set(u)
		}
		if li != nil {
			li.set(i, live)
		}
	}
}

// set stores the regspace state live as instruction i's live-in sets.
func (li *LiveInfo) set(i int, live Bits) {
	li.LiveIn[i] = sass.RegSet{live[0], live[1], live[2], live[3]}
	li.LiveIn[i].Remove(sass.RZ) // regspace bit 255 is P0
	for p := uint8(0); p < sass.NumPred; p++ {
		if live.Has(PredBit(p)) {
			li.PredLiveIn[i].Add(p)
		}
	}
	li.CCLiveIn[i] = live.Has(CCBit())
}

// mayAssigned solves, for every block entry, which registers may have
// been assigned (by any definition, guarded or not) on some path from the
// kernel entry — a forward may-analysis. The stack pointer is
// ABI-initialized and counts as assigned at entry. A guarded definition
// merges a real old value only where its register may be assigned.
func mayAssigned(cfg *sass.CFG) []Bits {
	nb := len(cfg.Blocks)
	sets := newBitsTable(nb+1, regSpaceBits)
	gen, boundary := sets[:nb:nb], sets[nb]
	var defBuf [16]int
	for b, blk := range cfg.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			for _, d := range appendDefs(defBuf[:0], &cfg.Kernel.Instrs[i]) {
				gen[b].Set(d)
			}
		}
	}
	boundary.Set(GPRBit(sass.SP))
	in, _ := Solve(cfg, Problem{
		Dir: Forward, Meet: Union, Bits: regSpaceBits, Gen: gen, Boundary: boundary,
	})
	return in
}
