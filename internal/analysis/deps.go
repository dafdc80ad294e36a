// Dependence analysis: BuildDeps builds static dependence DAGs over SASS
// kernels, the legality foundation of the instruction scheduler
// (internal/ptxas) and of the `schedule` check (schedule.go), one of
// Verify's fixed list.
//
// Within each basic block, instructions become DAG nodes and edges record
// the constraints any reordering must respect:
//
//   - Fence edges pinning instructions that order the whole stream:
//     control transfers (BRA/CAL/JCAL/RET/EXIT/SYNC), divergence-stack
//     pushes (SSY), barriers, atomics, clock reads, and
//     SASSI-injected instrumentation sites. Fences split a block into
//     segments. A fence gets an edge from every instruction of the
//     segment before it and from the fence before that; every other
//     instruction gets one edge from the fence before it. Through these
//     chains a fence is ordered against every other instruction of its
//     block, which fixes its position under any topological order.
//   - RAW/WAR/WAW edges over the architectural register space — GPRs,
//     predicates (including the @P guard), and the condition code — using
//     the same regspace layout as the dataflow framework. They stay inside
//     a segment, and each slot keeps only its last definition and the
//     reads since it: RAW and WAW edges run from the last definition, WAR
//     edges from each of those reads. An older definition or read is
//     ordered before the last definition by the edges it got itself.
//   - Memory edges between two memory operations of a segment when at
//     least one writes, unless the affine value lattice
//     (internal/analysis/values.go) proves the accesses disjoint for
//     *every* pair of threads in the CTA: across threads via
//     DisjointAcrossThreads and for the shared thread index via
//     DisjointSameThread. Warps execute in lockstep, so swapping two
//     memory instructions reorders every lane of one against every lane
//     of the other — the proof must cover all pairs, not just one thread.
//     Disjointness is not transitive, so these stay pairwise.
//
// Every edge is one a pairwise test of the block would give, and every
// pair such a test orders is joined by a path of these edges: the graph
// has the pairwise graph's transitive closure, and so its legal orders,
// with a number of edges linear in the block (DESIGN.md "Scheduling").
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
	"slices"

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
// consumes. It fills succs and indeg, each at least N long, and carves the
// lists from backing, at least len(Edges) long, so one set of arrays sized
// to a kernel's largest block serves all its blocks.
func (b *BlockDAG) LocalAdj(succs [][]int, indeg, backing []int) ([][]int, []int) {
	n := b.N()
	succs, indeg = succs[:n], indeg[:n]
	clear(indeg)
	// indeg counts out-degrees first, to carve the lists.
	for _, e := range b.Edges {
		indeg[e.From-b.Start]++
	}
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

// regSlots appends the instruction's regspace uses and defs — GPRs,
// predicates (the guard among them) and the condition code — to the two
// buffers.
func regSlots(in *sass.Instruction, uses, defs []int) ([]int, []int) {
	var regs [16]uint8
	for _, r := range in.AppendGPRSrcs(regs[:0]) {
		uses = append(uses, GPRBit(r))
	}
	for _, p := range in.AppendPredSrcs(regs[:0]) {
		uses = append(uses, PredBit(p))
	}
	if in.Mods.X {
		uses = append(uses, CCBit())
	}
	for _, r := range in.AppendGPRDsts(regs[:0]) {
		defs = append(defs, GPRBit(r))
	}
	for _, p := range in.AppendPredDsts(regs[:0]) {
		defs = append(defs, PredBit(p))
	}
	if in.Mods.SetCC {
		defs = append(defs, CCBit())
	}
	return uses, defs
}

// accessesMemory reports whether the instruction reads or writes memory a
// store can reach: constant-bank loads read an immutable space and are
// excluded.
func accessesMemory(in *sass.Instruction) bool {
	space := sass.MemSpaceOf(in.Op)
	return space != sass.MemNone && space != sass.MemConst
}

// memAccess is the static description of one memory operation's address.
type memAccess struct {
	known bool // addr is a usable lattice value
	addr  Value
	width int
	local bool // space-relative per-thread local window (LDL/STL)
}

// memAccessOf derives the address of memory instruction idx using the
// shared sass.MemSpaceOf classification. Shared and local offsets are
// normalized into the generic address numbering (window base + offset) so
// accesses in different spaces separate by construction.
func memAccessOf(val *Valuation, k *sass.Kernel, idx int) memAccess {
	in := &k.Instrs[idx]
	space := sass.MemSpaceOf(in.Op)
	acc := memAccess{
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

// kindRank orders the kinds a pair can have: a pair with several reasons
// to be ordered keeps the first kind of fence, RAW, WAW, WAR, mem.
var kindRank = [...]uint8{Fence: 0, RAW: 1, WAW: 2, WAR: 3, Mem: 4}

// pred is one predecessor of the instruction being visited, compactly:
// the edge's To is implied by the instruction it was found for.
type pred struct {
	from int32
	slot int16
	kind EdgeKind
}

// useRec is one register read in the uses-since-the-last-def list of a
// regspace slot: the reading instruction and the next older record, -1
// at the end.
type useRec struct {
	instr, next int32
}

// memOp is one memory operation of the current fence segment; its address
// is derived when a pair first needs it.
type memOp struct {
	idx      int
	write    bool
	resolved bool
	acc      memAccess
}

// depsBuilder holds the state of BuildDeps' forward pass over a kernel.
// Instruction indices only grow, so per-slot state from earlier segments
// is recognised by its index (below segStart) rather than cleared.
type depsBuilder struct {
	f    *KernelFacts
	k    *sass.Kernel
	val  *Valuation // nil until a segment holds a memory pair one of which writes
	dims BlockDims

	segStart  int     // first instruction after the last fence (or the block's first)
	prevFence int     // the last fence of the block so far, -1 for none
	lastDef   []int   // per regspace slot: the last instruction that defined it
	useHead   []int32 // per regspace slot: the newest read since lastDef, -1 for none
	uses      []useRec
	mems      []memOp // the segment's memory operations, in order

	cand  []pred  // the visited instruction's predecessors
	at    []int32 // at[i]: i's index in cand, valid when cand[at[i]].from == i
	preds []pred  // every instruction's sorted predecessors, in order
	count []int32 // count[j]: how many of preds are j's
}

// add records i as a predecessor of the visited instruction for the given
// reason, keeping one entry per i with the first kind by kindRank and,
// within a kind, the lowest slot.
func (b *depsBuilder) add(i int, kind EdgeKind, slot int) {
	p := pred{from: int32(i), slot: int16(slot), kind: kind}
	if a := int(b.at[i]); a < len(b.cand) && b.cand[a].from == p.from {
		old := &b.cand[a]
		if kindRank[kind] < kindRank[old.kind] || kind == old.kind && p.slot < old.slot {
			*old = p
		}
		return
	}
	b.at[i] = int32(len(b.cand))
	b.cand = append(b.cand, p)
}

// visit finds instruction j's predecessors and then folds j into the
// segment state.
func (b *depsBuilder) visit(j int) {
	in := &b.k.Instrs[j]
	b.cand = b.cand[:0]
	if fenceOp(in) {
		// Ordered after everything since the last fence, and that fence:
		// with the edge every later instruction gets from it, a fence is
		// ordered against the whole block.
		if b.prevFence >= 0 {
			b.add(b.prevFence, Fence, -1)
		}
		for i := b.segStart; i < j; i++ {
			b.add(i, Fence, -1)
		}
		b.prevFence, b.segStart = j, j+1
		b.mems = b.mems[:0]
		b.flush(j)
		return
	}
	if b.prevFence >= 0 {
		b.add(b.prevFence, Fence, -1)
	}

	var ubuf, dbuf [32]int
	uses, defs := regSlots(in, ubuf[:0], dbuf[:0])
	for _, s := range uses {
		if d := b.lastDef[s]; d >= b.segStart {
			b.add(d, RAW, s)
		}
	}
	for _, s := range defs {
		if d := b.lastDef[s]; d >= b.segStart {
			b.add(d, WAW, s)
		}
		// The reads since the last definition; older ones are ordered
		// before it, and it before j.
		for r := b.useHead[s]; r >= 0 && int(b.uses[r].instr) >= b.segStart; r = b.uses[r].next {
			b.add(int(b.uses[r].instr), WAR, s)
		}
	}

	if accessesMemory(in) {
		// Disjointness is not transitive, so memory pairs are not chained:
		// j is tested against every memory operation of its segment.
		op := memOp{idx: j, write: in.Op.IsMemWrite()}
		for m := range b.mems {
			if !b.mems[m].write && !op.write {
				continue
			}
			if !disjoint(b.resolve(&b.mems[m]), b.resolve(&op), b.dims) {
				b.add(b.mems[m].idx, Mem, -1)
			}
		}
		b.mems = append(b.mems, op)
	}

	for _, s := range uses {
		b.uses = append(b.uses, useRec{instr: int32(j), next: b.useHead[s]})
		b.useHead[s] = int32(len(b.uses) - 1)
	}
	for _, s := range defs {
		b.lastDef[s] = j
		b.useHead[s] = -1
	}
	b.flush(j)
}

// resolve returns op's address, running the value fixpoint the first
// time any address is needed.
func (b *depsBuilder) resolve(op *memOp) memAccess {
	if !op.resolved {
		if b.val == nil {
			b.val = b.f.Values()
		}
		op.acc, op.resolved = memAccessOf(b.val, b.k, op.idx), true
	}
	return op.acc
}

// flush appends j's predecessors, in instruction order, to the kernel's
// list.
func (b *depsBuilder) flush(j int) {
	slices.SortFunc(b.cand, func(x, y pred) int { return int(x.from - y.from) })
	b.preds = append(b.preds, b.cand...)
	b.count[j] = int32(len(b.cand))
}

// BuildDeps constructs the dependence graph of a kernel, one forward pass
// per block (the rules are in the file comment). Labels must be resolved
// (the CFG requires it). Memory edges consult f's valuation, which is
// computed only if some segment holds two memory operations one of which
// writes.
func BuildDeps(f *KernelFacts) *Graph {
	cfg := f.CFG
	k := cfg.Kernel
	n := len(k.Instrs)
	b := &depsBuilder{
		f:       f,
		k:       k,
		dims:    BlockDims{X: k.BlockDim[0], Y: k.BlockDim[1], Z: k.BlockDim[2]},
		lastDef: make([]int, CCBit()+1),
		useHead: make([]int32, CCBit()+1),
		at:      make([]int32, n),
		preds:   make([]pred, 0, 4*n),
		count:   make([]int32, n),
	}
	for s := range b.lastDef {
		b.lastDef[s], b.useHead[s] = -1, -1
	}
	for _, blk := range cfg.Blocks {
		b.segStart, b.prevFence = blk.Start, -1
		b.mems = b.mems[:0]
		for j := blk.Start; j < blk.End; j++ {
			b.visit(j)
		}
	}

	// List the edges in one array of exactly their number, in (To, From)
	// order, each block's a slice of it.
	edges := make([]Edge, len(b.preds))
	dags := make([]BlockDAG, len(cfg.Blocks))
	g := &Graph{Blocks: make([]*BlockDAG, len(cfg.Blocks))}
	e := 0
	for bi, blk := range cfg.Blocks {
		first := e
		for j := blk.Start; j < blk.End; j++ {
			for range b.count[j] {
				p := b.preds[e]
				edges[e] = Edge{From: int(p.from), To: j, Kind: p.kind, Slot: int(p.slot)}
				e++
			}
		}
		dags[bi] = BlockDAG{Start: blk.Start, End: blk.End, Edges: edges[first:e:e]}
		g.Blocks[bi] = &dags[bi]
	}
	return g
}
