package analysis_test

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
)

func scheduleDiags(k *sass.Kernel) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range analysis.VerifyKernel(k) {
		if d.Check == analysis.CheckSchedule {
			out = append(out, d)
		}
	}
	return out
}

// permute reorders k's instructions so that position p holds original
// instruction perm[p], recording the provenance in SchedOrig.
func permute(k *sass.Kernel, perm []int) {
	instrs := make([]sass.Instruction, len(k.Instrs))
	for p, o := range perm {
		instrs[p] = k.Instrs[o]
	}
	k.Instrs = instrs
	k.SchedOrig = perm
}

func TestCheckScheduleAcceptsLegalReorder(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1), // independent of
		movi(1, 2), // this one
		iadd(2, 0, 1),
		exit(),
	)
	permute(k, []int{1, 0, 2, 3}) // swap the independent pair
	if diags := scheduleDiags(k); len(diags) != 0 {
		t.Fatalf("legal reorder rejected: %v", diags)
	}
	// No SchedOrig: nothing to certify.
	k2 := testKernel(t, [3]int{32, 1, 1}, nil, movi(0, 1), exit())
	if diags := scheduleDiags(k2); len(diags) != 0 {
		t.Fatalf("unscheduled kernel reported: %v", diags)
	}
}

func TestCheckScheduleRejectsInvertedRAW(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),
		iadd(1, 0, 0), // RAW on R0
		movi(2, 3),
		exit(),
	)
	// Claim the original order was (iadd before movi R0): the reconstructed
	// original has the RAW edge inverted by the "schedule".
	permute(k, []int{1, 0, 2, 3})
	diags := scheduleDiags(k)
	if len(diags) == 0 {
		t.Fatal("inverted RAW dependence not reported")
	}
}

func TestCheckScheduleRejectsMalformedPermutation(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, nil,
		movi(0, 1),
		movi(1, 2),
		exit(),
	)
	k.SchedOrig = []int{0, 0, 2} // duplicate
	if len(scheduleDiags(k)) == 0 {
		t.Fatal("duplicate SchedOrig entry not reported")
	}
	k.SchedOrig = []int{0, 1} // wrong length
	if len(scheduleDiags(k)) == 0 {
		t.Fatal("truncated SchedOrig not reported")
	}
	k.SchedOrig = []int{0, 3, 1} // out of range
	if len(scheduleDiags(k)) == 0 {
		t.Fatal("out-of-range SchedOrig entry not reported")
	}
}

func TestCheckScheduleRejectsBlockEscape(t *testing.T) {
	k := testKernel(t, [3]int{32, 1, 1}, map[string]int{"L": 2},
		movi(0, 1),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("L")}),
		movi(1, 2), // L:
		exit(),
	)
	// Swap across the branch: instruction 2 claims to have been 0.
	permute(k, []int{2, 1, 0, 3})
	found := false
	for _, d := range scheduleDiags(k) {
		if d.Sev == analysis.Error {
			found = true
		}
	}
	if !found {
		t.Fatal("cross-block permutation not reported")
	}
}
