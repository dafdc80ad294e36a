package faults_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/faults"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// profileLine is one campaign's profiling run as the golden records it: the
// site total, the largest launch's warp instruction count (which calibrates
// the injection runs' watchdog), and per launch its kernel and a SHA-256 of
// its per-thread site counts.
func profileLine(launches []faults.ProfiledLaunch, maxWarpInstrs uint64) string {
	var sites uint64
	var b strings.Builder
	for _, l := range launches {
		h := sha256.New()
		var word [8]byte
		for _, n := range l.Counts {
			sites += n
			binary.LittleEndian.PutUint64(word[:], n)
			h.Write(word[:])
		}
		fmt.Fprintf(&b, " %s:%x", l.Kernel, h.Sum(nil))
	}
	return fmt.Sprintf("sites=%d max_warp_instrs=%d%s", sites, maxWarpInstrs, b.String())
}

// TestProfileGolden pins the profiling run of every register campaign in
// outcomes.golden — the site space every injection run samples from — to
// what the commit before global atomics were batched per warp produced:
// the same per-thread counts in every launch, the same site total, the
// same watchdog calibration. SMs run concurrently, so counters shared
// between SMs see their atomics interleaved. (The control campaign's
// profiling handlers use no device atomics.)
func TestProfileGolden(t *testing.T) {
	var keys []string
	got := make(map[string]string)
	for _, app := range goldenApps {
		spec, ok := workloads.Get(app)
		if !ok {
			t.Fatalf("%s not registered", app)
		}
		for _, seed := range goldenSeeds {
			c := &faults.Campaign{
				Spec: spec, Dataset: spec.DefaultDataset(),
				Injections: goldenInjections, Seed: seed, Config: sim.MiniGPU(),
			}
			launches, maxWarpInstrs, err := c.Profile()
			if err != nil {
				t.Fatalf("%s seed=%d: %v", app, seed, err)
			}
			key := fmt.Sprintf("%s seed=%d", app, seed)
			keys = append(keys, key)
			got[key] = profileLine(launches, maxWarpInstrs)
		}
	}
	path := filepath.Join("testdata", "profile.golden")
	if *update {
		var b strings.Builder
		b.WriteString("# Profiling runs of the faults.Campaign entries of outcomes.golden: default\n")
		b.WriteString("# dataset, sim.MiniGPU(), concurrent SMs. Per launch, kernel:SHA-256 of the\n")
		b.WriteString("# per-thread site counts (little-endian uint64). Regenerate only when the\n")
		b.WriteString("# site space is meant to change:\n")
		b.WriteString("#   go test ./internal/faults -run ProfileGolden -update\n")
		for _, key := range keys {
			fmt.Fprintf(&b, "%s: %s\n", key, got[key])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, path)
	if len(want) != len(keys) {
		t.Errorf("%d campaigns, golden has %d", len(keys), len(want))
	}
	for _, key := range keys {
		if got[key] != want[key] {
			t.Errorf("%s:\n got %s\nwant %s", key, got[key], want[key])
		}
	}
}
