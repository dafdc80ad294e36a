package ptxas

import (
	"sassi/internal/analysis"
	"sassi/internal/analysis/deps"
	"sassi/internal/sass"
)

// Post-RA list scheduler. Each basic block's instructions are reordered
// into a topological order of the dependence DAG (internal/analysis/deps)
// that greedily minimizes scoreboard stalls under the shared latency
// model (sass.IssueCost / sass.ResultLatency) — the exact cost the
// simulator's per-warp scoreboard charges, so the schedule optimizes what
// the cycle counter measures.
//
// Tie-breaking among equally-stalled candidates is by critical-path
// priority, then — when seed is non-zero — by a per-instruction splitmix
// jitter. The autotuner (internal/experiments, cmd/sassi-sched) sweeps
// seeds to explore the plateau of greedy-equivalent schedules; seed 0 is
// the deterministic baseline heuristic.
//
// The permutation is recorded in Kernel.SchedOrig, which downstream
// verification (the `schedule` check) uses to re-derive and certify
// legality against the reconstructed original stream.

// ScheduleKernel applies the list scheduler to an already-compiled
// kernel, recording provenance in SchedOrig. Exported for SASS-authored
// programs (workloads.Spec.BuildProgram) that bypass CompileFunc; callers
// should re-run analysis.Verify afterwards to certify the permutation.
func ScheduleKernel(k *sass.Kernel, seed uint64) { scheduleKernel(k, seed) }

// scheduleKernel reorders k in place. The kernel must have resolved
// labels. Scheduling is block-local: labels target block leaders and
// control transfers are DAG fences pinned to their positions, so the CFG
// partition and every branch target survive unchanged.
func scheduleKernel(k *sass.Kernel, seed uint64) {
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		return // leave the kernel unscheduled; Validate will judge it
	}
	g := deps.Build(analysis.NewKernelFacts(cfg))
	order := make([]int, 0, len(k.Instrs))
	for _, bd := range g.Blocks {
		order = append(order, scheduleBlock(k, bd, seed)...)
	}
	instrs := make([]sass.Instruction, len(k.Instrs))
	for p, o := range order {
		instrs[p] = k.Instrs[o]
	}
	k.Instrs = instrs
	k.SchedOrig = order
}

// scheduleBlock returns the block's instructions as original indices in
// scheduled order.
func scheduleBlock(k *sass.Kernel, bd *deps.BlockDAG, seed uint64) []int {
	n := bd.N()
	out := make([]int, 0, n)
	if n <= 1 {
		for i := 0; i < n; i++ {
			out = append(out, bd.Start+i)
		}
		return out
	}
	succs, indeg := bd.LocalAdj()

	// Critical-path priority: longest latency chain from each node to the
	// block exit, under the same model the stall simulation uses.
	prio := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		in := &k.Instrs[bd.Start+i]
		w := int64(sass.IssueCost(in) + sass.ResultLatency(in))
		best := int64(0)
		for _, s := range succs[i] {
			if prio[s] > best {
				best = prio[s]
			}
		}
		prio[i] = w + best
	}

	var jitter []uint64
	if seed != 0 {
		jitter = make([]uint64, n)
		for i := range jitter {
			jitter[i] = splitmix(seed, uint64(bd.Start+i))
		}
	}

	// Greedy simulation mirroring sim.Warp.scoreboard: readyAt per regspace
	// slot, plus a per-node floor from scheduled mem/fence predecessors.
	readyAt := make([]uint64, analysis.CCBit()+1)
	nodeFloor := make([]uint64, n)
	clock := uint64(0)

	issueAt := func(i int) uint64 {
		in := &k.Instrs[bd.Start+i]
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
		for _, p := range in.PredSrcs() {
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

	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
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

		in := &k.Instrs[bd.Start+i]
		clock = bestIssue + uint64(sass.IssueCost(in))
		retire := clock + uint64(sass.ResultLatency(in))
		var buf [24]uint8
		for _, d := range in.AppendGPRDsts(buf[:0]) {
			readyAt[analysis.GPRBit(d)] = retire
		}
		for _, p := range in.PredDsts() {
			readyAt[analysis.PredBit(p)] = retire
		}
		if in.Mods.SetCC {
			readyAt[analysis.CCBit()] = retire
		}
		for _, s := range succs[i] {
			if nodeFloor[s] < clock {
				nodeFloor[s] = clock
			}
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
		out = append(out, bd.Start+i)
	}
	return out
}

// splitmix scrambles (seed, site) into an independent jitter word — the
// same construction the fault-campaign and difftest worker pools use, so
// candidate schedules are a pure function of the seed.
func splitmix(seed, site uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(site+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
