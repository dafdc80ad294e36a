package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/analysis/concurrency"
	"sassi/internal/sass"
)

// TestTruncatedWalkWarnsInEveryCheck: a chain of 18 subroutines, each
// calling the next from two call sites, has 2^18 call stacks at its
// deepest RET, past the control-stack walk's state budget. Every check
// that reads the walk must say it stopped, under its own name: a
// `-checks cfi` or `-checks barrier-divergence` run must not pass a kernel
// it never finished.
func TestTruncatedWalkWarnsInEveryCheck(t *testing.T) {
	const depth = 18
	cal := func(fn int) sass.Instruction {
		return sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label(fmt.Sprint("f", fn))})
	}
	labels := map[string]int{}
	instrs := []sass.Instruction{cal(1), cal(1), sass.New(sass.OpEXIT, nil, nil)}
	for fn := 1; fn <= depth; fn++ {
		labels[fmt.Sprint("f", fn)] = len(instrs)
		if fn < depth {
			instrs = append(instrs, cal(fn+1), cal(fn+1))
		}
		instrs = append(instrs, sass.New(sass.OpRET, nil, nil))
	}
	k := kern(t, labels, instrs...)

	diags, facts := analysis.VerifyKernelFacts(k)
	diags = append(diags, concurrency.CheckBarrierAlignment(facts)...)
	want := map[string]bool{analysis.CheckDivergence: true, analysis.CheckCFI: true, analysis.CheckBarrier: true}
	for _, d := range diags {
		if d.Sev != analysis.Warning || d.Instr != -1 || !strings.Contains(d.Msg, "truncated") || !want[d.Check] {
			t.Errorf("unexpected diagnostic: %v", d)
			continue
		}
		delete(want, d.Check)
	}
	for check := range want {
		t.Errorf("no truncation warning from the %s check: %v", check, diags)
	}
}
