package analysis_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/difftest"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/workloads"
)

// depsDigest hashes a kernel's dependence graph in the order BuildDeps
// lists it, block by block. The order is part of the contract — the list scheduler walks LocalAdj's successor
// lists in it — so the digest is order-sensitive.
func depsDigest(t testing.TB, k *sass.Kernel) string {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatalf("kernel %s: %v", k.Name, err)
	}
	f := analysis.NewKernelFacts(cfg)
	g := analysis.BuildDeps(f)
	d := fnv.New64a()
	var buf [25]byte
	edge := func(e analysis.Edge) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.From))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.To))
		binary.LittleEndian.PutUint64(buf[16:], uint64(int64(e.Slot)))
		buf[24] = byte(e.Kind)
		d.Write(buf[:])
	}
	local := 0
	for _, bd := range g.Blocks {
		binary.LittleEndian.PutUint64(buf[0:], uint64(bd.Start))
		binary.LittleEndian.PutUint64(buf[8:], uint64(bd.End))
		d.Write(buf[:16])
		for _, e := range bd.Edges {
			edge(e)
		}
		local += len(bd.Edges)
	}
	return fmt.Sprintf("instrs=%d edges=%d digest=%016x", len(k.Instrs), local, d.Sum64())
}

// forDepsKernels calls fn on every kernel the dependence goldens pin:
// every workload under every golden variant, its scheduled compile, and
// the difftest kernels of seeds 0-399, each with the label its golden
// line starts with.
func forDepsKernels(t *testing.T, fn func(label string, k *sass.Kernel)) {
	t.Helper()
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				fn(name+" "+v.name+" "+k.Name, k)
			}
		}
		spec, _ := workloads.Get(name)
		prog, err := spec.Compile(ptxas.Options{Schedule: true, Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: scheduled compile: %v", name, err)
		}
		for _, k := range prog.Kernels {
			fn(name+" scheduled "+k.Name, k)
		}
	}
	for seed := uint64(0); seed < 400; seed++ {
		m, err := difftest.Generate(seed, difftest.DefaultSize()).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := ptxas.Compile(m, ptxas.Options{Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, k := range prog.Kernels {
			fn(fmt.Sprintf("difftest/%d %s", seed, k.Name), k)
		}
	}
}

// TestDepsGolden pins every dependence edge BuildDeps lists, in order, on
// every kernel forDepsKernels visits, so a pass means the edge lists are
// unchanged.
// Regenerate (only when the graph is meant to change) with
// `go test ./internal/analysis -run DepsGolden -update`.
func TestDepsGolden(t *testing.T) {
	var b strings.Builder
	forDepsKernels(t, func(label string, k *sass.Kernel) {
		fmt.Fprintf(&b, "%s %s\n", label, depsDigest(t, k))
	})
	compareGolden(t, b.String(), "deps.golden", "DepsGolden", "dependence edges changed")
}

// reachDigest hashes, block by block, the reachability relation of a
// kernel's dependence graph: for each instruction, the later instructions
// of its block that some path of edges orders after it. Two graphs with
// the same digest admit the same schedules, whatever edges they list.
func reachDigest(t testing.TB, k *sass.Kernel) string {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatalf("kernel %s: %v", k.Name, err)
	}
	g := analysis.BuildDeps(analysis.NewKernelFacts(cfg))
	d := fnv.New64a()
	var buf [16]byte
	pairs := 0
	for _, bd := range g.Blocks {
		binary.LittleEndian.PutUint64(buf[0:], uint64(bd.Start))
		binary.LittleEndian.PutUint64(buf[8:], uint64(bd.End))
		d.Write(buf[:16])
		reach := blockReach(bd)
		for _, r := range reach {
			for _, w := range r {
				binary.LittleEndian.PutUint64(buf[0:], w)
				d.Write(buf[:8])
				pairs += bits.OnesCount64(w)
			}
		}
	}
	return fmt.Sprintf("instrs=%d ordered=%d digest=%016x", len(k.Instrs), pairs, d.Sum64())
}

// blockReach is the transitive closure of a block DAG: reach[u] has bit v
// set when a path of edges leads from local node u to local node v.
func blockReach(bd *analysis.BlockDAG) [][]uint64 {
	n := bd.N()
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	for u := range reach {
		reach[u] = make([]uint64, words)
	}
	// Edges run forward, so a backward sweep closes each node's
	// successors before the node itself.
	succs := make([][]int, n)
	for _, e := range bd.Edges {
		succs[e.From-bd.Start] = append(succs[e.From-bd.Start], e.To-bd.Start)
	}
	for u := n - 1; u >= 0; u-- {
		for _, v := range succs[u] {
			reach[u][v/64] |= 1 << (v % 64)
			for w, m := range reach[v] {
				reach[u][w] |= m
			}
		}
	}
	return reach
}

// TestDepsReachabilityGolden pins, on every kernel forDepsKernels visits,
// which instructions of a block the dependence graph orders before which:
// the relation that decides the legal schedules, the scheduler's ready
// sets and its critical-path priorities. Any graph with the same closure
// passes, however many edges it lists.
func TestDepsReachabilityGolden(t *testing.T) {
	var b strings.Builder
	forDepsKernels(t, func(label string, k *sass.Kernel) {
		fmt.Fprintf(&b, "%s %s\n", label, reachDigest(t, k))
	})
	compareGolden(t, b.String(), "deps_reach.golden", "DepsReachabilityGolden", "reachability changed")
}

// compareGolden holds got to testdata/<file> line by line, rewriting the
// file first under -update.
func compareGolden(t *testing.T, got, file, test, what string) {
	t.Helper()
	golden := filepath.Join("testdata", file)
	if *analysis.UpdateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analysis -run %s -update` to create it)", err, test)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s has %d kernels, this run %d", file, len(wl)-1, len(gl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s:\n got  %s\n want %s", what, gl[i], wl[i])
		}
	}
}
