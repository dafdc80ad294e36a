package analysis_test

import (
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
)

// TestCompiledKernelsReadNothingUndefined holds ptxas's definite-assignment
// rule against the SASS check's. ptxas refuses a PTX value read on some path
// before any unguarded definition, which is stricter than the SASS check's
// same-guard pairing, so no kernel ptxas emits (every workload plain and
// scheduled, difftest seeds 0–399) may have a source read MaybeUninitReads
// reports. Two kinds of finding are not counted: a merge of a guarded
// destination's old value, which if-conversion makes of the first write in
// a predicated body (rodinia.pathfinder's R14:R15 at 0x118 and 0x120: no
// lane that skips the write reads the pair), and reads in instrumented
// variants, where injected code saves registers and CC whatever they hold.
func TestCompiledKernelsReadNothingUndefined(t *testing.T) {
	kernels, merges := 0, 0
	forDepsKernels(t, func(label string, k *sass.Kernel) {
		if v := strings.Fields(label)[1]; v != "base" && v != "scheduled" && !strings.HasPrefix(label, "difftest/") {
			return
		}
		cfg, err := sass.BuildCFG(k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		kernels++
		for _, r := range analysis.MaybeUninitReads(cfg) {
			if r.Merge {
				merges++
				continue
			}
			t.Errorf("%s@%d: %s may be read before assignment", label, r.Instr, analysis.RegSpaceName(r.Reg))
		}
	})
	if kernels < 400 {
		t.Fatalf("checked %d kernels, want every workload and difftest seed", kernels)
	}
	t.Logf("%d kernels, %d merge-only findings", kernels, merges)
}
