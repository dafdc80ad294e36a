package deps

import (
	"fmt"

	"sassi/internal/analysis"
	"sassi/internal/sass"
)

// The `schedule` check certifies scheduler output. A kernel carrying a
// SchedOrig permutation claims "I am a reordering of the original stream
// recorded in SchedOrig"; the check reconstructs that original, rebuilds
// the dependence DAG on it, and verifies the claimed order is (a) a
// well-formed permutation, (b) block-local with respect to the original
// CFG partition, and (c) a topological order of every block DAG — fences,
// register dependences, and non-disjoint memory pairs all respected.
// Kernels without SchedOrig (never scheduled, or rewritten by a later
// pass that dropped the provenance) have nothing to certify.
func init() {
	analysis.RegisterKernelCheck(analysis.CheckSchedule, checkSchedule)
}

func checkSchedule(f *analysis.KernelFacts) []analysis.Diagnostic {
	k := f.CFG.Kernel
	if k.SchedOrig == nil {
		return nil
	}
	bad := func(idx int, format string, args ...any) []analysis.Diagnostic {
		return []analysis.Diagnostic{{
			Sev: analysis.Error, Check: analysis.CheckSchedule,
			Kernel: k.Name, Instr: idx, Msg: fmt.Sprintf(format, args...),
		}}
	}
	n := len(k.Instrs)
	if len(k.SchedOrig) != n {
		return bad(-1, "SchedOrig has %d entries for %d instructions", len(k.SchedOrig), n)
	}

	// (a) Permutation of [0, n).
	pos := make([]int, n) // pos[orig index] = scheduled position
	seen := make([]bool, n)
	for p, o := range k.SchedOrig {
		if o < 0 || o >= n {
			return bad(p, "SchedOrig[%d] = %d out of range [0,%d)", p, o, n)
		}
		if seen[o] {
			return bad(p, "SchedOrig maps two positions to original instruction %d", o)
		}
		seen[o] = true
		pos[o] = p
	}

	// Reconstruct the original stream the permutation claims to reorder.
	orig := k.Clone()
	orig.SchedOrig = nil
	for p, o := range k.SchedOrig {
		orig.Instrs[o] = k.Instrs[p]
	}
	ocfg, err := sass.BuildCFG(orig)
	if err != nil {
		return bad(-1, "reconstructed original kernel has no CFG: %v", err)
	}

	// (b) Block-local: each original block's instructions stay inside the
	// block's position range, so labels (which target block leaders) and
	// the CFG partition survive untouched.
	var diags []analysis.Diagnostic
	for _, blk := range ocfg.Blocks {
		for o := blk.Start; o < blk.End; o++ {
			if pos[o] < blk.Start || pos[o] >= blk.End {
				diags = append(diags, bad(pos[o],
					"original instruction %d escapes its block [%d,%d) to position %d",
					o, blk.Start, blk.End, pos[o])[0])
			}
		}
	}
	if len(diags) > 0 {
		return diags
	}

	// (c) Topological order of every block's dependence DAG.
	// The DAG is the reconstructed original's, a different instruction
	// order from the kernel f describes: it needs facts of its own.
	g := Build(analysis.NewKernelFacts(ocfg))
	for _, bd := range g.Blocks {
		for _, e := range bd.Edges {
			if pos[e.From] >= pos[e.To] {
				diags = append(diags, bad(pos[e.To],
					"%s dependence %d -> %d (%s) inverted: scheduled at %d and %d",
					e.Kind, e.From, e.To, slotName(e), pos[e.From], pos[e.To])[0])
			}
		}
	}
	return diags
}

func slotName(e Edge) string {
	if e.Slot < 0 {
		return "no slot"
	}
	return analysis.RegSpaceName(e.Slot)
}
