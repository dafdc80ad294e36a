package ptxas

import (
	"sassi/internal/analysis"
	"sassi/internal/sass"
)

// Post-RA list scheduler. Each basic block's instructions are reordered
// into a topological order of the dependence DAG (analysis.BuildDeps)
// that greedily minimizes scoreboard stalls under the shared latency
// model (sass.IssueCost / sass.ResultLatency) — the exact cost the
// simulator's per-warp scoreboard charges, so the schedule optimizes what
// the cycle counter measures.
//
// Tie-breaking among equally-stalled candidates is by critical-path
// priority, then — when seed is non-zero — by a per-instruction sass.SplitMix
// jitter. The autotuner (experiments.SchedTable, `experiments -run sched`) sweeps
// seeds to explore the plateau of greedy-equivalent schedules; seed 0 is
// the deterministic baseline heuristic.
//
// The permutation is recorded in Kernel.SchedOrig, which downstream
// verification (the `schedule` check) uses to re-derive and certify
// legality against the reconstructed original stream.

// scheduleKernel reorders k in place. The kernel must have resolved
// labels. Scheduling is block-local: labels target block leaders and
// control transfers are DAG fences pinned to their positions, so the CFG
// partition and every branch target survive unchanged.
func scheduleKernel(k *sass.Kernel, seed uint64) {
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		return // leave the kernel unscheduled; checkKernel will judge it
	}
	g := analysis.BuildDeps(analysis.NewKernelFacts(cfg))
	s := newScheduler(k, g, seed)
	order := make([]int, len(k.Instrs))
	for _, bd := range g.Blocks {
		s.block(bd, order[bd.Start:bd.End])
	}
	instrs := make([]sass.Instruction, len(k.Instrs))
	for p, o := range order {
		instrs[p] = k.Instrs[o]
	}
	k.Instrs = instrs
	k.SchedOrig = order
}

// scheduler holds one kernel's list-scheduling state. Its arrays are
// sized to the kernel's largest block and reused by every block.
type scheduler struct {
	k    *sass.Kernel
	seed uint64

	succs     [][]int
	indeg     []int
	backing   []int
	prio      []int64
	jitter    []uint64
	ready     []int
	readyAt   []uint64
	nodeFloor []uint64
}

func newScheduler(k *sass.Kernel, g *analysis.Graph, seed uint64) *scheduler {
	n, e := 0, 0
	for _, bd := range g.Blocks {
		n, e = max(n, bd.N()), max(e, len(bd.Edges))
	}
	s := &scheduler{
		k:         k,
		seed:      seed,
		succs:     make([][]int, n),
		indeg:     make([]int, n),
		backing:   make([]int, e),
		prio:      make([]int64, n),
		ready:     make([]int, 0, n),
		readyAt:   make([]uint64, analysis.CCBit()+1),
		nodeFloor: make([]uint64, n),
	}
	if seed != 0 {
		s.jitter = make([]uint64, n)
	}
	return s
}

// block writes the block's instructions into out as original indices in
// scheduled order.
func (s *scheduler) block(bd *analysis.BlockDAG, out []int) {
	n := bd.N()
	if n <= 1 {
		for i := range out {
			out[i] = bd.Start + i
		}
		return
	}
	succs, indeg := bd.LocalAdj(s.succs, s.indeg, s.backing)

	// Critical-path priority: longest latency chain from each node to the
	// block exit, under the same model the stall simulation uses.
	prio := s.prio[:n]
	for i := n - 1; i >= 0; i-- {
		in := &s.k.Instrs[bd.Start+i]
		w := int64(sass.IssueCost(in) + sass.ResultLatency(in))
		best := int64(0)
		for _, c := range succs[i] {
			if prio[c] > best {
				best = prio[c]
			}
		}
		prio[i] = w + best
	}

	var jitter []uint64
	if s.jitter != nil {
		jitter = s.jitter[:n]
		for i := range jitter {
			jitter[i] = sass.SplitMix(s.seed, uint64(bd.Start+i))
		}
	}

	// Greedy simulation mirroring sim.Warp.scoreboard: readyAt per regspace
	// slot, plus a per-node floor from scheduled mem/fence predecessors.
	readyAt := s.readyAt
	clear(readyAt)
	nodeFloor := s.nodeFloor[:n]
	clear(nodeFloor)
	clock := uint64(0)

	issueAt := func(i int) uint64 {
		in := &s.k.Instrs[bd.Start+i]
		ready := nodeFloor[i]
		consider := func(slot int) {
			if r := readyAt[slot]; r > ready {
				ready = r
			}
		}
		var buf [24]uint8
		for _, r := range in.AppendGPRSrcs(buf[:0]) {
			consider(analysis.GPRBit(r))
		}
		for _, r := range in.AppendGPRDsts(buf[:0]) {
			consider(analysis.GPRBit(r)) // WAW stall, as the sim charges it
		}
		for _, p := range in.AppendPredSrcs(buf[:0]) {
			consider(analysis.PredBit(p))
		}
		if in.Mods.X || in.Mods.SetCC {
			consider(analysis.CCBit())
		}
		if ready < clock {
			ready = clock
		}
		return ready
	}

	ready := s.ready[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for pos := range out {
		// Pick the candidate issuing earliest; break ties by critical path,
		// jitter, then original order.
		bestIdx := 0
		bestIssue := issueAt(ready[0])
		for c := 1; c < len(ready); c++ {
			is := issueAt(ready[c])
			i, b := ready[c], ready[bestIdx]
			better := false
			switch {
			case is != bestIssue:
				better = is < bestIssue
			case prio[i] != prio[b]:
				better = prio[i] > prio[b]
			case jitter != nil && jitter[i] != jitter[b]:
				better = jitter[i] > jitter[b]
			default:
				better = i < b
			}
			if better {
				bestIdx, bestIssue = c, is
			}
		}
		i := ready[bestIdx]
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)

		in := &s.k.Instrs[bd.Start+i]
		clock = bestIssue + uint64(sass.IssueCost(in))
		retire := clock + uint64(sass.ResultLatency(in))
		var buf [24]uint8
		for _, d := range in.AppendGPRDsts(buf[:0]) {
			readyAt[analysis.GPRBit(d)] = retire
		}
		for _, p := range in.AppendPredDsts(buf[:0]) {
			readyAt[analysis.PredBit(p)] = retire
		}
		if in.Mods.SetCC {
			readyAt[analysis.CCBit()] = retire
		}
		for _, c := range succs[i] {
			if nodeFloor[c] < clock {
				nodeFloor[c] = clock
			}
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
		out[pos] = bd.Start + i
	}
}
