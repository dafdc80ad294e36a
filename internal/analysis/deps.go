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
//     control transfers (BRA/CAL/JCAL/RET/EXIT/SYNC), divergence-stack
//     pushes (SSY), barriers, atomics, clock reads, and
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
	"math/bits"

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
	Start, End int // instruction index range [Start, End)
	Edges      []Edge
}

// N returns the number of nodes (instructions) in the block.
func (b *BlockDAG) N() int { return b.End - b.Start }

// LocalAdj returns the DAG as local adjacency lists plus in-degrees,
// indexed by instruction position minus Start — the shape list scheduling
// consumes. The lists share one array.
func (b *BlockDAG) LocalAdj() (succs [][]int, indeg []int) {
	n := b.N()
	succs = make([][]int, n)
	indeg = make([]int, n)
	// indeg counts out-degrees first, to carve the lists.
	for _, e := range b.Edges {
		indeg[e.From-b.Start]++
	}
	backing := make([]int, len(b.Edges))
	off := 0
	for u, d := range indeg {
		succs[u] = backing[off : off : off+d]
		off += d
	}
	clear(indeg)
	for _, e := range b.Edges {
		u, v := e.From-b.Start, e.To-b.Start
		succs[u] = append(succs[u], v)
		indeg[v]++
	}
	return succs, indeg
}

// Graph is the per-block dependence DAG forest of one kernel. The
// scheduler never moves instructions across blocks, so it holds no
// cross-block edges.
type Graph struct {
	Blocks []*BlockDAG
}

// fenceOp reports whether the instruction orders the whole stream.
func fenceOp(in *sass.Instruction) bool {
	if in.Injected {
		return true // instrumentation sites must observe the original order
	}
	switch in.Op {
	case sass.OpBRA, sass.OpSSY, sass.OpSYNC,
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

// regSets fills uses and defs (cleared) with the instruction's regspace
// use and def bits.
func regSets(in *sass.Instruction, uses, defs Bits) {
	var regs [16]uint8
	for _, r := range in.AppendGPRSrcs(regs[:0]) {
		uses.Set(GPRBit(r))
	}
	for _, p := range in.AppendPredSrcs(regs[:0]) {
		uses.Set(PredBit(p))
	}
	if in.Mods.X {
		uses.Set(CCBit())
	}
	for _, r := range in.AppendGPRDsts(regs[:0]) {
		defs.Set(GPRBit(r))
	}
	for _, p := range in.AppendPredDsts(regs[:0]) {
		defs.Set(PredBit(p))
	}
	if in.Mods.SetCC {
		defs.Set(CCBit())
	}
}

// firstCommon returns the lowest bit set in both sets, or -1.
func firstCommon(a, b Bits) int {
	for w := range a {
		if m := a[w] & b[w]; m != 0 {
			return w*64 + bits.TrailingZeros64(m)
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
	n := len(k.Instrs)
	val := f.Values()
	// Every instruction's use and def sets, from one table.
	sets := newBitsTable(2*n, CCBit()+1)
	uses, defs := sets[:n:n], sets[n:]
	fences := make([]bool, n)
	mems := make([]memAccess, n)
	for i := range k.Instrs {
		regSets(&k.Instrs[i], uses[i], defs[i])
		fences[i] = fenceOp(&k.Instrs[i])
		mems[i] = memAccessOf(val, k, i)
	}
	dims := BlockDims{X: k.BlockDim[0], Y: k.BlockDim[1], Z: k.BlockDim[2]}
	// dependence is the edge that orders i < j of one block, if any.
	dependence := func(i, j int) (Edge, bool) {
		if fences[i] || fences[j] {
			return Edge{From: i, To: j, Kind: Fence, Slot: -1}, true
		}
		if slot := firstCommon(defs[i], uses[j]); slot >= 0 {
			return Edge{From: i, To: j, Kind: RAW, Slot: slot}, true
		}
		if slot := firstCommon(defs[i], defs[j]); slot >= 0 {
			return Edge{From: i, To: j, Kind: WAW, Slot: slot}, true
		}
		if slot := firstCommon(uses[i], defs[j]); slot >= 0 {
			return Edge{From: i, To: j, Kind: WAR, Slot: slot}, true
		}
		mi, mj := &mems[i], &mems[j]
		if mi.isMem && mj.isMem && (mi.write || mj.write) && !disjoint(*mi, *mj, dims) {
			return Edge{From: i, To: j, Kind: Mem, Slot: -1}, true
		}
		return Edge{}, false
	}

	// Count the edges, then list them in one array: pairs run in (j, i)
	// order, a block's edges sliced out of it in turn.
	total := 0
	for _, blk := range cfg.Blocks {
		for j := blk.Start + 1; j < blk.End; j++ {
			for i := blk.Start; i < j; i++ {
				if _, ok := dependence(i, j); ok {
					total++
				}
			}
		}
	}
	edges := make([]Edge, 0, total)
	dags := make([]BlockDAG, len(cfg.Blocks))
	g := &Graph{Blocks: make([]*BlockDAG, len(cfg.Blocks))}
	for b, blk := range cfg.Blocks {
		first := len(edges)
		for j := blk.Start + 1; j < blk.End; j++ {
			for i := blk.Start; i < j; i++ {
				if e, ok := dependence(i, j); ok {
					edges = append(edges, e)
				}
			}
		}
		dags[b] = BlockDAG{Start: blk.Start, End: blk.End, Edges: edges[first:len(edges):len(edges)]}
		g.Blocks[b] = &dags[b]
	}
	return g
}
