package difftest

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteRegressionTestdata regenerates the checked-in regression repros
// under testdata/ when run with DIFFTEST_UPDATE=1. Each entry is a kernel
// the differential campaign actually flagged, minimized by the shrinker;
// TestRegressionRepros replays every one of them through the full oracle.
func TestWriteRegressionTestdata(t *testing.T) {
	if os.Getenv("DIFFTEST_UPDATE") == "" {
		t.Skip("set DIFFTEST_UPDATE=1 to regenerate testdata")
	}
	for _, r := range []struct {
		name string
		prog *Prog
		note string
	}{
		{
			name: "regress-no-branch-sites",
			prog: &Prog{Seed: 0x1, GridX: 1, BlockX: 32, NumU: 4, NumF: 1, Stmts: []Stmt{
				{Kind: StArith, D: 1, A: 0, B: 2, Op: 0},
				{Kind: StStOut, A: 1, K: 0},
			}},
			note: "regression: handler symbols with zero JCAL sites must be skipped,\n" +
				"not reported as transparency launch failures (found by run 1 of the\n" +
				"first campaign; the branch profiler has no sites in straight-line code)",
		},
		{
			name: "regress-atomic-dead-fetch",
			prog: &Prog{Seed: 7923724220186219862, GridX: 2, BlockX: 32, NumU: 1, NumF: 1, Stmts: []Stmt{
				{Kind: StAtom, D: 52, A: 19, B: 29, Op: 28, K: 63},
				{Kind: StXchg, D: 58, A: 19, B: 10, Op: 43, K: 8},
				{Kind: StStLocal, D: 61, A: 23, B: 5, Op: 13, K: 62},
			}},
			note: "regression: an atomic whose fetched old value is never read used to\n" +
				"keep its destination register, carrying scheduler-dependent memory\n" +
				"snapshots to kernel exit (base/seq vs base/par: R8 = 0x0 vs 0x20).\n" +
				"ptxas now reduces dead-fetch atomics to no-return form (RED).",
		},
		{
			name: "regress-atomic-mixed-ops",
			prog: &Prog{Seed: 2106293278287090, GridX: 3, BlockX: 32, NumU: 5, NumF: 1, Stmts: []Stmt{
				{Kind: StAtom, D: 7, A: 5, B: 23, Op: 9, K: 47},
				{Kind: StAtom, D: 55, A: 57, B: 27, Op: 52, K: 15},
			}},
			note: "regression: atomic ADD and MAX into the same accumulator slot do not\n" +
				"commute (seq vs par: acc[7] differed); the generator now splits the\n" +
				"accumulator into an ADD-only low half and a MAX-only high half",
		},
		{
			name: "regress-sync-then-arm",
			prog: &Prog{Seed: 314, GridX: 1, BlockX: 32, NumU: 7, NumF: 1, Stmts: []Stmt{
				{Kind: StIfElse, D: 14, A: 60, B: 44, Op: 43, K: 41, Else: []Stmt{
					{Kind: StArithI, D: 54, A: 30, B: 5, Op: 34, K: 46},
				}},
			}},
			note: "regression: an empty then-arm's SYNC pops straight to the reconvergence\n" +
				"point, where R7 is read, but the CFG gave it only a fall-through edge\n" +
				"into the else-arm, which writes R7 first; liveness called R7 dead there\n" +
				"and the site before that SYNC zeroed it as an ABI argument register\n" +
				"(base/ref-seq vs opcount/ref-seq: out[3] = 0xbe vs 0x0)",
		},
	} {
		if err := WriteRepro(filepath.Join("testdata", r.name+".ptx"), r.prog, r.note); err != nil {
			t.Fatal(err)
		}
	}
}
