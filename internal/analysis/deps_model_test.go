package analysis

// The model for BuildDeps: the pairwise implementation it replaced, kept
// but for names. It tests every pair of a block and gives each pair that
// conflicts an edge — a fence against every other instruction of its
// block, a register conflict whatever instructions lie between, a
// memory pair the lattice cannot separate — so its graph is the full
// dependence relation, transitively reduced nowhere. BuildDeps lists a
// subgraph of it with the same closure; TestDepsMatchModel and
// TestSchedulesRespectModelEdges hold the two together.

import (
	"math/bits"

	"sassi/internal/sass"
)

// modelRegSets fills uses and defs (cleared) with the instruction's
// regspace use and def bits.
func modelRegSets(in *sass.Instruction, uses, defs Bits) {
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

// modelDeps is the pairwise dependence graph of f's kernel.
func modelDeps(f *KernelFacts) *Graph {
	cfg := f.CFG
	k := cfg.Kernel
	n := len(k.Instrs)
	val := f.Values()
	sets := newBitsTable(2*n, CCBit()+1)
	uses, defs := sets[:n:n], sets[n:]
	fences := make([]bool, n)
	isMem, writes := make([]bool, n), make([]bool, n)
	mems := make([]memAccess, n)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		modelRegSets(in, uses[i], defs[i])
		fences[i] = fenceOp(in)
		if accessesMemory(in) {
			isMem[i], writes[i] = true, in.Op.IsMemWrite()
			mems[i] = memAccessOf(val, k, i)
		}
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
		if isMem[i] && isMem[j] && (writes[i] || writes[j]) && !disjoint(mems[i], mems[j], dims) {
			return Edge{From: i, To: j, Kind: Mem, Slot: -1}, true
		}
		return Edge{}, false
	}

	g := &Graph{Blocks: make([]*BlockDAG, len(cfg.Blocks))}
	for b, blk := range cfg.Blocks {
		bd := &BlockDAG{Start: blk.Start, End: blk.End}
		for j := blk.Start + 1; j < blk.End; j++ {
			for i := blk.Start; i < j; i++ {
				if e, ok := dependence(i, j); ok {
					bd.Edges = append(bd.Edges, e)
				}
			}
		}
		g.Blocks[b] = bd
	}
	return g
}
