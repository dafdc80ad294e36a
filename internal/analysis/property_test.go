package analysis_test

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/workloads"
)

// TestWorkloadDataflowProperties cross-checks the generic dataflow
// framework against the instruction-level analyses in internal/sass on
// every kernel of every built-in workload:
//
//  1. every maybe-uninitialized read MaybeUninitReads reports is of a
//     register that liveness also sees as live at the reading instruction;
//  2. every genuine register source read either has a reaching definition
//     or is reported by the definite-assignment analysis (nothing reads a
//     value no analysis can account for);
//  3. the entry block dominates every reachable block.
func TestWorkloadDataflowProperties(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, _ := workloads.Get(name)
			prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range prog.Kernels {
				checkKernelProperties(t, k)
			}
		})
	}
}

func checkKernelProperties(t *testing.T, k *sass.Kernel) {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatalf("kernel %s: %v", k.Name, err)
	}
	li := sass.ComputeLiveness(cfg)
	ri := analysis.ReachingDefs(cfg)
	dom := analysis.Dominators(cfg)
	uninit := analysis.MaybeUninitReads(cfg)

	// (1) Every maybe-uninit read is of a register live at the read.
	uninitAt := map[[2]int]bool{}
	for _, u := range uninit {
		uninitAt[[2]int{u.Instr, u.Reg}] = true
		bit := u.Reg
		switch {
		case bit < analysis.PredBit(0):
			if !li.LiveIn[u.Instr].Has(uint8(bit)) {
				t.Errorf("kernel %s@%d: uninit read of %s but liveness says dead",
					k.Name, u.Instr, analysis.RegSpaceName(bit))
			}
		case bit < analysis.CCBit():
			if !li.PredLiveIn[u.Instr].Has(uint8(bit - analysis.PredBit(0))) {
				t.Errorf("kernel %s@%d: uninit read of %s but liveness says dead",
					k.Name, u.Instr, analysis.RegSpaceName(bit))
			}
		default:
			if !li.CCLiveIn[u.Instr] {
				t.Errorf("kernel %s@%d: uninit read of CC but liveness says dead", k.Name, u.Instr)
			}
		}
	}

	// Reachability from the entry block, for (2) and (3).
	reachable := make([]bool, len(cfg.Blocks))
	stack := []int{0}
	reachable[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cfg.Blocks[b].Succs {
			if !reachable[s] {
				reachable[s] = true
				stack = append(stack, s)
			}
		}
	}

	// (2) Accounted reads: reaching def, def-assign report, or the
	// ABI-initialized stack pointer.
	for i := range k.Instrs {
		if !reachable[cfg.BlockOf(i).ID] {
			continue
		}
		for _, r := range k.Instrs[i].GPRSrcs() {
			if int(r) == sass.SP {
				continue
			}
			bit := analysis.GPRBit(r)
			if len(ri.ReachingAt(i, bit)) == 0 && !uninitAt[[2]int{i, bit}] {
				t.Errorf("kernel %s@%d: R%d read with no reaching def and no def-assign finding", k.Name, i, r)
			}
		}
		for _, p := range k.Instrs[i].PredSrcs() {
			bit := analysis.PredBit(p)
			if len(ri.ReachingAt(i, bit)) == 0 && !uninitAt[[2]int{i, bit}] {
				t.Errorf("kernel %s@%d: P%d read with no reaching def and no def-assign finding", k.Name, i, p)
			}
		}
	}

	// (3) The entry block dominates every reachable block.
	for _, blk := range cfg.Blocks {
		if reachable[blk.ID] && !analysis.Dominates(dom, 0, blk.ID) {
			t.Errorf("kernel %s: entry does not dominate reachable block %d", k.Name, blk.ID)
		}
	}
}
