package analysis_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// TestDepsGolden pins every dependence edge BuildDeps lists, in order, on
// every workload under every golden variant, on its scheduled compile, and
// on difftest kernels of seeds 0-399, so a pass means the edge lists are
// unchanged.
// Regenerate (only when the graph is meant to change) with
// `go test ./internal/analysis -run DepsGolden -update`.
func TestDepsGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				fmt.Fprintf(&b, "%s %s %s %s\n", name, v.name, k.Name, depsDigest(t, k))
			}
		}
		spec, _ := workloads.Get(name)
		prog, err := spec.Compile(ptxas.Options{Schedule: true, Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: scheduled compile: %v", name, err)
		}
		for _, k := range prog.Kernels {
			fmt.Fprintf(&b, "%s scheduled %s %s\n", name, k.Name, depsDigest(t, k))
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
			fmt.Fprintf(&b, "difftest/%d %s %s\n", seed, k.Name, depsDigest(t, k))
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "deps.golden")
	if *analysis.UpdateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analysis -run DepsGolden -update` to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("deps golden has %d kernels, this run %d", len(wl)-1, len(gl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("dependence edges changed:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}
