package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/difftest"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// retiredStateTools are the tools whose instrumentation variants
// retired_state.golden pins besides the plain program: the three
// case-study profilers, a list of its own because the golden's rows name
// them.
const retiredStateTools = "branch,memdiv,value"

// hashCTA folds one retired CTA's index and snapshot into h: shared
// memory, then per thread its registers, predicates, CC and whole local
// memory.
func hashCTA(h hash.Hash, index int, st *difftest.CTAState) {
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	put(uint32(index))
	put(uint32(len(st.Shared)))
	h.Write(st.Shared)
	put(uint32(len(st.Threads)))
	for i := range st.Threads {
		ts := &st.Threads[i]
		put(ts.FlatTid)
		put(uint32(len(ts.Regs)))
		for _, r := range ts.Regs {
			put(r)
		}
		put(uint32(ts.Preds))
		put(uint32(ts.CC))
		put(uint32(len(ts.Local)))
		h.Write(ts.Local)
	}
}

// retiredStateDigest runs spec (instrumented by tool unless it is nil) on
// sequential SMs with the difftest collector's snapshot attached at every
// CTA retirement, and hashes, launch by launch, each launch's KernelStats
// and outcome followed by its retired CTAs in index order.
func retiredStateDigest(t *testing.T, spec *Spec, tool func(*cuda.Context) handlers.Tool) string {
	t.Helper()
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatalf("%s: compile: %v", spec.Name, err)
	}
	cfg := sim.MiniGPU()
	cfg.SequentialSMs = true
	ctx := cuda.NewContext(cfg)
	if tool != nil {
		tool := tool(ctx)
		if err := sassi.Instrument(prog, tool.Options()); err != nil {
			t.Fatalf("%s: instrument: %v", spec.Name, err)
		}
		rt := sassi.NewRuntime(prog)
		h := tool.Handler()
		if _, ok := prog.Handlers[h.Name]; ok {
			rt.MustRegister(h)
		}
		rt.Attach(ctx.Device())
	}
	digest := sha256.New()
	ctas := map[int][]byte{}
	ctx.Device().CTARetire = func(cta *sim.CTA) {
		h := sha256.New()
		hashCTA(h, cta.Index, difftest.Snapshot(cta))
		ctas[cta.Index] = h.Sum(nil)
	}
	ctx.Subscribe(cuda.LaunchCallbacks{PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
		fmt.Fprintf(digest, "launch %d %s err=%v\n", idx, kernel, err)
		if stats != nil {
			fmt.Fprintf(digest, "%+v\n", *stats)
		}
		idxs := make([]int, 0, len(ctas))
		for i := range ctas {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			digest.Write(ctas[i])
		}
		clear(ctas)
	}})
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	fmt.Fprintf(digest, "run err=%v", err)
	if res != nil {
		fmt.Fprintf(digest, " verify=%v", res.VerifyErr)
	}
	return hex.EncodeToString(digest.Sum(nil))
}

// TestRetiredStateGolden pins, as one SHA-256 per workload × {plain, branch,
// memdiv, value}, the architectural state every CTA retires with — registers,
// predicates, CC, full local memory, shared memory — and every launch's
// KernelStats (testdata/retired_state.golden). The reference interpreter and
// the execution core share the state representation, so their bit-equality
// cannot vouch for a change of that representation; this file, recorded
// before such a change, can. Regenerate only for an intended change of
// architectural results, with
// `go test ./internal/workloads -run RetiredStateGolden -update`.
func TestRetiredStateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	specs := All()
	tools, err := handlers.SelectTools(retiredStateTools)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(specs))
	t.Run("run", func(t *testing.T) {
		for i, spec := range specs {
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				var b strings.Builder
				fmt.Fprintf(&b, "%s plain %s\n", spec.Name, retiredStateDigest(t, spec, nil))
				for _, tool := range tools {
					fmt.Fprintf(&b, "%s %s %s\n", spec.Name, tool.Name, retiredStateDigest(t, spec, tool.New))
				}
				lines[i] = b.String()
			})
		}
	})
	got := strings.Join(lines, "")
	golden := filepath.Join("testdata", "retired_state.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/workloads -run RetiredStateGolden -update` to create it)", err)
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
