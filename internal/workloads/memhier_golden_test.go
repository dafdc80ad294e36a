package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// memHierDigest runs spec (under the memdiv profiler when memdiv is set) on
// MiniGPU with a MemWatch attached, which forces sequential SMs, and hashes
// the observed warp accesses in order — PC, SM, warp, store, active lanes
// and the coalesced lines in first-touch order — then the run's outcome,
// every SM's final L1 and L2 statistics and every DRAM channel's
// transaction count.
func memHierDigest(t *testing.T, spec *Spec, memdiv bool) string {
	t.Helper()
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatalf("%s: compile: %v", spec.Name, err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	dev := ctx.Device()
	if memdiv {
		p := handlers.NewMemDivProfiler(ctx)
		if err := sassi.Instrument(prog, p.Options()); err != nil {
			t.Fatalf("%s: instrument: %v", spec.Name, err)
		}
		rt := sassi.NewRuntime(prog)
		if _, ok := prog.Handlers[p.Handler().Name]; ok {
			rt.MustRegister(p.Handler())
		}
		rt.Attach(dev)
	}
	digest := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		digest.Write(w[:])
	}
	dev.MemWatch = func(ev sim.MemAccess) {
		store := uint64(0)
		if ev.Store {
			store = 1
		}
		put(uint64(ev.PC))
		put(uint64(ev.SM))
		put(uint64(ev.Warp))
		put(store)
		put(uint64(ev.Res.NumActive))
		put(uint64(len(ev.Res.Lines)))
		for _, l := range ev.Res.Lines {
			put(l)
		}
	}
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	fmt.Fprintf(digest, "run err=%v", err)
	if res != nil {
		fmt.Fprintf(digest, " verify=%v", res.VerifyErr)
	}
	for i := range dev.L2s {
		if dev.L1s[i] != nil {
			fmt.Fprintf(digest, "\nL1.%d %+v", i, dev.L1s[i].Stats)
		}
		fmt.Fprintf(digest, "\nL2.%d %+v\nDRAM.%d %d", i, dev.L2s[i].Stats, i, dev.DRAMs[i].Transactions)
	}
	return hex.EncodeToString(digest.Sum(nil))
}

// TestMemHierGolden pins, as one SHA-256 per workload × {plain, memdiv},
// what the memory hierarchy sees (testdata/memhier.golden): every warp-level
// global access's coalesced line set in issue order, and the caches' and
// DRAM channels' final counts. A change to how a warp access reaches global
// memory, the coalescer or the cache model must reproduce it bit for bit;
// regenerate only for an intended change of the modeled hierarchy, with
// `go test ./internal/workloads -run MemHierGolden -update`.
func TestMemHierGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	specs := All()
	lines := make([]string, len(specs))
	t.Run("run", func(t *testing.T) {
		for i, spec := range specs {
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				lines[i] = fmt.Sprintf("%s plain %s\n%s memdiv %s\n",
					spec.Name, memHierDigest(t, spec, false), spec.Name, memHierDigest(t, spec, true))
			})
		}
	})
	got := strings.Join(lines, "")
	golden := filepath.Join("testdata", "memhier.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/workloads -run MemHierGolden -update` to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, golden has %q", i+1, gotLines[i], wantLines[i])
		}
	}
}
