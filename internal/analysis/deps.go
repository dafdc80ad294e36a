// Dependence analysis: BuildDeps builds static dependence DAGs over SASS
// kernels, the legality foundation of the instruction scheduler
// (internal/ptxas) and of the `schedule` check (schedule.go), one of
// Verify's fixed list.
//
// Within each basic block, instructions become DAG nodes and edges record
// the constraints any reordering must respect:
//
//   - RAW/WAR/WAW edges over the architectural register space — GPRs,
//     predicates (including the @P guard), and the condition code — using
//     the same regspace layout as the dataflow framework.
//   - Memory edges between two memory operations when at least one writes,
//     unless the affine value lattice (internal/analysis/values.go) proves
//     the accesses disjoint for *every* pair of threads in the CTA: across
//     threads via DisjointAcrossThreads and for the shared thread index
//     via DisjointSameThread. Warps execute in lockstep, so swapping two
//     memory instructions reorders every lane of one against every lane of
//     the other — the proof must cover all pairs, not just one thread.
//   - Fence edges pinning instructions that order the whole stream:
//     control transfers (BRA/BRK/CAL/JCAL/RET/EXIT/SYNC), divergence-stack
//     pushes (SSY/PBK), barriers, atomics, clock reads, and
//     SASSI-injected instrumentation sites. A fence is ordered against
//     every other instruction of its block, which fixes its position under
//     any topological order.
//
// Soundness scope: legality is warp-local. Reordering also permutes a
// warp's accesses relative to other warps and CTAs; that is
// behaviour-preserving only for programs free of cross-warp races on
// non-atomic memory — exactly the discipline the shared-race check
// enforces and the difftest engine axis (sequential-vs-concurrent
// bit-equality) assumes. Atomics and barriers, the sanctioned cross-warp
// orderings, are fences here, and the autotuner additionally gates every
// candidate schedule on bit-equal final state against the unscheduled
// binary.

package analysis

import (
	"fmt"

	"sassi/internal/mem"
	"sassi/internal/sass"
)

// EdgeKind classifies a dependence edge.
type EdgeKind uint8

// Edge kinds.
const (
	RAW   EdgeKind = iota // read-after-write on a register slot
	WAR                   // write-after-read
	WAW                   // write-after-write
	Mem                   // possibly-aliasing memory access pair
	Fence                 // ordering against a scheduling fence
)

var kindNames = [...]string{"RAW", "WAR", "WAW", "mem", "fence"}

func (k EdgeKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// Edge is one dependence: the instruction at From must execute before the
// one at To. Both are kernel-wide instruction indices with From < To in
// the analyzed order. Slot is the regspace bit the dependence runs
// through (GPRBit/PredBit/CCBit) for register edges, -1 for
// memory and fence edges.
type Edge struct {
	From, To int
	Kind     EdgeKind
	Slot     int
}

// BlockDAG is the dependence DAG of one basic block.
type BlockDAG struct {
	ID         int
	Start, End int // instruction index range [Start, End)
	Edges      []Edge
}

// N returns the number of nodes (instructions) in the block.
func (b *BlockDAG) N() int { return b.End - b.Start }

// LocalAdj returns the DAG as local adjacency lists plus in-degrees,
// indexed by instruction position minus Start — the shape list scheduling
// consumes.
func (b *BlockDAG) LocalAdj() (succs [][]int, indeg []int) {
	n := b.N()
	succs = make([][]int, n)
	indeg = make([]int, n)
	for _, e := range b.Edges {
		u, v := e.From-b.Start, e.To-b.Start
		succs[u] = append(succs[u], v)
		indeg[v]++
	}
	return succs, indeg
}

// Graph is the per-block dependence DAG forest of one kernel, plus the
// dominator-scoped cross-block register dependences (informational: the
// scheduler never moves instructions across blocks, and the cross edges
// let clients and the property tests see the def-use structure the
// block-local restriction preserves).
type Graph struct {
	CFG    *sass.CFG
	Blocks []*BlockDAG
	// Cross holds RAW edges whose definition and use sit in different
	// blocks, restricted to defs whose block dominates the use's block
	// (the scoped subset with a guaranteed-ordered witness; merge-point
	// reaching defs from sibling branches carry no such order).
	Cross []Edge
}

// fenceOp reports whether the instruction orders the whole stream.
func fenceOp(in *sass.Instruction) bool {
	if in.Injected {
		return true // instrumentation sites must observe the original order
	}
	switch in.Op {
	case sass.OpBRA, sass.OpBRK, sass.OpPBK, sass.OpSSY, sass.OpSYNC,
		sass.OpCAL, sass.OpJCAL, sass.OpRET, sass.OpEXIT, sass.OpBAR:
		return true
	case sass.OpS2R:
		// SR_CLOCK reads the cycle counter: reordering changes its value.
		for _, s := range in.Srcs {
			if s.Kind == sass.OpdSReg && s.SR == sass.SRClock {
				return true
			}
		}
	}
	return in.Op.IsAtomic()
}

// regSets returns the instruction's regspace use and def bitsets.
func regSets(in *sass.Instruction, nbits int) (uses, defs Bits) {
	uses, defs = NewBits(nbits), NewBits(nbits)
	for _, r := range in.GPRSrcs() {
		uses.Set(GPRBit(r))
	}
	for _, p := range in.PredSrcs() {
		uses.Set(PredBit(p))
	}
	if in.Mods.X {
		uses.Set(CCBit())
	}
	for _, r := range in.GPRDsts() {
		defs.Set(GPRBit(r))
	}
	for _, p := range in.PredDsts() {
		defs.Set(PredBit(p))
	}
	if in.Mods.SetCC {
		defs.Set(CCBit())
	}
	return uses, defs
}

// firstCommon returns the lowest bit set in both sets, or -1.
func firstCommon(a, b Bits) int {
	for w := range a {
		if m := a[w] & b[w]; m != 0 {
			for bit := w * 64; bit < (w+1)*64; bit++ {
				if a.Has(bit) && b.Has(bit) {
					return bit
				}
			}
		}
	}
	return -1
}

// memAccess is the static description of one memory operation's address.
type memAccess struct {
	isMem bool
	write bool
	known bool // addr is a usable lattice value
	addr  Value
	width int
	local bool // space-relative per-thread local window (LDL/STL)
}

// memAccessOf derives the access description for instruction idx using the
// shared sass.MemSpaceOf classification. Shared and local offsets are
// normalized into the generic address numbering (window base + offset) so
// accesses in different spaces separate by construction; constant-bank
// loads read an immutable space no store can touch and are excluded.
func memAccessOf(val *Valuation, k *sass.Kernel, idx int) memAccess {
	in := &k.Instrs[idx]
	space := sass.MemSpaceOf(in.Op)
	if space == sass.MemNone || space == sass.MemConst {
		return memAccess{}
	}
	acc := memAccess{
		isMem: true,
		write: in.Op.IsMemWrite(),
		width: in.Mods.Width.Bytes(),
		local: space == sass.MemLocal,
	}
	if in.Mods.E {
		// 64-bit address pairs: the lattice tracks the low word only, and
		// carries into the high word would break the interval proofs.
		return acc
	}
	var ref sass.Operand
	found := false
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdMem {
			ref, found = s, true
			break
		}
	}
	if !found {
		return acc
	}
	addr := val.RegValue(idx, ref.Reg).AddConst(ref.Imm)
	switch space {
	case sass.MemShared:
		addr = addr.AddConst(int64(mem.SharedBase))
	case sass.MemLocal:
		addr = addr.AddConst(int64(mem.LocalBase))
	}
	acc.known = addr.Known
	acc.addr = addr
	return acc
}

// disjoint reports whether the two accesses are proven non-overlapping
// for every thread pair of the CTA.
func disjoint(a, b memAccess, dims BlockDims) bool {
	if !a.known || !b.known {
		return false
	}
	if !DisjointSameThread(a.addr, a.width, b.addr, b.width, dims) {
		return false
	}
	if a.local && b.local {
		// Per-thread local windows: distinct threads access distinct
		// memories, so cross-thread disjointness is structural.
		return true
	}
	return DisjointAcrossThreads(a.addr, a.width, b.addr, b.width, dims)
}

// BuildDeps constructs the dependence graph of a kernel. Labels must be
// resolved (the CFG requires it). Memory edges consult f's valuation.
func BuildDeps(f *KernelFacts) *Graph {
	cfg := f.CFG
	k := cfg.Kernel
	nbits := CCBit() + 1
	val := f.Values()
	dims := BlockDims{X: k.BlockDim[0], Y: k.BlockDim[1], Z: k.BlockDim[2]}

	g := &Graph{CFG: cfg}
	for _, blk := range cfg.Blocks {
		bd := &BlockDAG{ID: blk.ID, Start: blk.Start, End: blk.End}
		n := bd.N()
		uses := make([]Bits, n)
		defs := make([]Bits, n)
		fences := make([]bool, n)
		mems := make([]memAccess, n)
		for i := 0; i < n; i++ {
			in := &k.Instrs[blk.Start+i]
			uses[i], defs[i] = regSets(in, nbits)
			fences[i] = fenceOp(in)
			mems[i] = memAccessOf(val, k, blk.Start+i)
		}
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				from, to := blk.Start+i, blk.Start+j
				switch {
				case fences[i] || fences[j]:
					bd.Edges = append(bd.Edges, Edge{From: from, To: to, Kind: Fence, Slot: -1})
				case firstCommon(defs[i], uses[j]) >= 0:
					bd.Edges = append(bd.Edges, Edge{From: from, To: to, Kind: RAW,
						Slot: firstCommon(defs[i], uses[j])})
				case firstCommon(defs[i], defs[j]) >= 0:
					bd.Edges = append(bd.Edges, Edge{From: from, To: to, Kind: WAW,
						Slot: firstCommon(defs[i], defs[j])})
				case firstCommon(uses[i], defs[j]) >= 0:
					bd.Edges = append(bd.Edges, Edge{From: from, To: to, Kind: WAR,
						Slot: firstCommon(uses[i], defs[j])})
				case mems[i].isMem && mems[j].isMem && (mems[i].write || mems[j].write):
					if !disjoint(mems[i], mems[j], dims) {
						bd.Edges = append(bd.Edges, Edge{From: from, To: to, Kind: Mem, Slot: -1})
					}
				}
			}
		}
		g.Blocks = append(g.Blocks, bd)
	}
	g.Cross = crossBlockRAW(cfg)
	return g
}

// crossBlockRAW collects the dominator-scoped cross-block RAW edges: a
// definition reaching a use in another block, where the def's block
// dominates the use's block so the ordering witness is unconditional.
func crossBlockRAW(cfg *sass.CFG) []Edge {
	ri := ReachingDefs(cfg)
	dom := Dominators(cfg)
	k := cfg.Kernel
	nbits := CCBit() + 1
	var out []Edge
	for idx := range k.Instrs {
		ub := cfg.BlockOf(idx).ID
		use, _ := regSets(&k.Instrs[idx], nbits)
		for _, slot := range use.Members() {
			for _, def := range ri.ReachingAt(idx, slot) {
				db := cfg.BlockOf(def).ID
				if db == ub || !Dominates(dom, db, ub) {
					continue
				}
				out = append(out, Edge{From: def, To: idx, Kind: RAW, Slot: slot})
			}
		}
	}
	return out
}

// BlockOf returns the block DAG containing instruction idx.
func (g *Graph) BlockOf(idx int) *BlockDAG {
	return g.Blocks[g.CFG.BlockOf(idx).ID]
}
