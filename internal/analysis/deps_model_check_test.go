package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/difftest"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/workloads"
)

// modelMismatch compares BuildDeps with the pairwise model on k: "" if
// every edge BuildDeps lists is a model edge for a reason that holds and
// every block's closure is the model's, else the first difference.
func modelMismatch(t *testing.T, k *sass.Kernel) string {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatalf("kernel %s: %v", k.Name, err)
	}
	g := analysis.BuildDeps(analysis.NewKernelFacts(cfg))
	m := analysis.ModelDeps(analysis.NewKernelFacts(cfg))
	for b, bd := range g.Blocks {
		// Both lists run in (To, From) order: walk them together.
		mb := m.Blocks[b]
		mi := 0
		for _, e := range bd.Edges {
			for mi < len(mb.Edges) && edgeBefore(mb.Edges[mi], e) {
				mi++
			}
			if mi == len(mb.Edges) || mb.Edges[mi].From != e.From || mb.Edges[mi].To != e.To {
				return fmt.Sprintf("%s edge %d -> %d is not a model edge", e.Kind, e.From, e.To)
			}
			me := mb.Edges[mi]
			if why := edgeReason(k, e, me); why != "" {
				return fmt.Sprintf("%s edge %d -> %d (%s), model %s: %s",
					e.Kind, e.From, e.To, slotLabel(e.Slot), me.Kind, why)
			}
		}
		got, want := blockReach(bd), blockReach(mb)
		for u := range want {
			if !slices.Equal(got[u], want[u]) {
				return fmt.Sprintf("block [%d,%d): instruction %d reaches %x, model %x",
					bd.Start, bd.End, bd.Start+u, got[u], want[u])
			}
		}
	}
	return ""
}

// edgeBefore orders edges by (To, From).
func edgeBefore(a, b analysis.Edge) bool {
	return a.To < b.To || a.To == b.To && a.From < b.From
}

// edgeReason checks that edge e holds for the reason its kind and slot
// give; me is the model's edge for the same pair, which may rank a
// different reason first.
func edgeReason(k *sass.Kernel, e, me analysis.Edge) string {
	if (e.Kind == analysis.Fence) != (me.Kind == analysis.Fence) {
		return "fence edges differ"
	}
	fu, fd := instrRegSets(&k.Instrs[e.From])
	tu, td := instrRegSets(&k.Instrs[e.To])
	var ok bool
	switch e.Kind {
	case analysis.Fence:
		return ""
	case analysis.RAW:
		ok = e.Slot >= 0 && fd.Has(e.Slot) && tu.Has(e.Slot)
	case analysis.WAW:
		ok = e.Slot >= 0 && fd.Has(e.Slot) && td.Has(e.Slot)
	case analysis.WAR:
		ok = e.Slot >= 0 && fu.Has(e.Slot) && td.Has(e.Slot)
	case analysis.Mem:
		// Only the model can judge a memory pair; it ranks register
		// reasons above it.
		ok = e.Slot == -1
	}
	if !ok {
		return "the slot does not carry that dependence"
	}
	return ""
}

func slotLabel(slot int) string {
	if slot < 0 {
		return "no slot"
	}
	return analysis.RegSpaceName(slot)
}

// TestDepsMatchModel holds BuildDeps to the pairwise graph it replaced on
// every kernel the dependence goldens pin: a subgraph of it, each edge for
// a reason that holds, with the same closure block by block.
func TestDepsMatchModel(t *testing.T) {
	forDepsKernels(t, func(label string, k *sass.Kernel) {
		if d := modelMismatch(t, k); d != "" {
			t.Errorf("%s: %s", label, d)
		}
	})
}

// modelInversions reports the model edges a scheduled kernel's order
// inverts, judged on the original stream SchedOrig records.
func modelInversions(t *testing.T, k *sass.Kernel) []string {
	t.Helper()
	if k.SchedOrig == nil {
		t.Fatalf("kernel %s: scheduled compile recorded no SchedOrig", k.Name)
	}
	pos := make([]int, len(k.SchedOrig))
	orig := k.Clone()
	orig.SchedOrig = nil
	for p, o := range k.SchedOrig {
		pos[o] = p
		orig.Instrs[o] = k.Instrs[p]
	}
	cfg, err := sass.BuildCFG(orig)
	if err != nil {
		t.Fatalf("kernel %s: original: %v", k.Name, err)
	}
	var bad []string
	for _, bd := range analysis.ModelDeps(analysis.NewKernelFacts(cfg)).Blocks {
		for _, e := range bd.Edges {
			if pos[e.From] >= pos[e.To] {
				bad = append(bad, fmt.Sprintf("%s %d -> %d at %d, %d", e.Kind, e.From, e.To, pos[e.From], pos[e.To]))
			}
		}
	}
	return bad
}

// fuzzScheduleSeeds reads the generator seeds of FuzzSchedule's committed
// corpus.
func fuzzScheduleSeeds(t *testing.T) []uint64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "difftest", "testdata", "fuzz", "FuzzSchedule", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzSchedule corpus: %v (%d files)", err, len(files))
	}
	var seeds []uint64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var seed uint64
		if _, err := fmt.Sscanf(strings.TrimPrefix(string(b), "go test fuzz v1\n"), "uint64(%d)", &seed); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestSchedulesRespectModelEdges: scheduling never adds a dependence
// violation. Every scheduled compile — each workload, difftest seeds
// 0-399, and FuzzSchedule's corpus under the tie-break seed the target
// derives — orders every edge of the pairwise model's graph of the
// original stream, not only the edges BuildDeps lists.
func TestSchedulesRespectModelEdges(t *testing.T) {
	check := func(label string, prog *sass.Program) {
		for _, k := range prog.Kernels {
			if bad := modelInversions(t, k); len(bad) > 0 {
				t.Errorf("%s %s: %d model edges inverted, first %s", label, k.Name, len(bad), bad[0])
			}
		}
	}
	for _, name := range workloads.Names() {
		spec, _ := workloads.Get(name)
		prog, err := spec.Compile(ptxas.Options{Schedule: true, Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: scheduled compile: %v", name, err)
		}
		check(name, prog)
	}
	compile := func(seed uint64, size difftest.Size, schedSeed uint64) *sass.Program {
		m, err := difftest.Generate(seed, size).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := ptxas.Compile(m, ptxas.Options{Schedule: true, SchedSeed: schedSeed, Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("seed %d: scheduled compile: %v", seed, err)
		}
		return prog
	}
	for seed := uint64(0); seed < 400; seed++ {
		check(fmt.Sprintf("difftest/%d", seed), compile(seed, difftest.DefaultSize(), 0))
	}
	for _, seed := range fuzzScheduleSeeds(t) {
		check(fmt.Sprintf("FuzzSchedule/%d", seed), compile(seed, difftest.FuzzSize(), difftest.SplitMix(seed, 0x5c4ed)))
	}
}
