package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/obs"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestDisassemblyGolden pins the exact SASS the backend emits for three
// representative workloads against checked-in golden files. Any change to
// lowering, optimization passes, register allocation, or the disassembly
// format shows up as a reviewable textual diff instead of a silent shift
// in every downstream experiment (instruction counts, fault-injection
// site numbering, overhead figures all key off this code).
func TestDisassemblyGolden(t *testing.T) {
	for _, name := range []string{"parboil.sgemm", "parboil.bfs", "parboil.stencil"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := Get(name)
			if !ok {
				t.Fatalf("workload %q not registered", name)
			}
			m, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ptxas.Compile(m, ptxas.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, k := range prog.Kernels {
				b.WriteString(k.Disassemble())
				b.WriteByte('\n')
			}
			got := b.String()

			golden := filepath.Join("testdata", "golden",
				strings.ReplaceAll(name, ".", "-")+".sass")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test -run DisassemblyGolden -update ./internal/workloads` to create it)", err)
			}
			if got != string(want) {
				t.Errorf("SASS for %s changed; diff against %s.\n"+
					"If the change is intended, regenerate with -update.\n--- got ---\n%s",
					name, golden, got)
			}
		})
	}
}

// disasmVariant is one state of a compiled workload that
// testdata/disasm.golden pins.
type disasmVariant struct {
	name  string
	ptxas ptxas.Options
	inst  *sassi.Options // nil: uninstrumented
}

// disasmVariants are the two backend configurations, every tool of
// handlers.Tools and the error-injection profiler.
func disasmVariants() []disasmVariant {
	ctx := cuda.NewContext(sim.KeplerK10())
	off := ptxas.Options{Verify: analysis.VerifyOff}
	vs := []disasmVariant{
		{"plain", off, nil},
		{"scheduled", ptxas.Options{Schedule: true, Verify: analysis.VerifyOff}, nil},
	}
	for _, tool := range handlers.Tools() {
		opts := tool.New(ctx).Options()
		vs = append(vs, disasmVariant{tool.Name, off, &opts})
	}
	errorinj := handlers.NewInjProfiler(ctx, 1).Options()
	return append(vs, disasmVariant{"errorinj", off, &errorinj})
}

// programDigest hashes everything about a program that the pre-launch
// pipeline decides: per kernel the disassembly, the label map in name
// order, NumRegs, LocalBytes, every Injected flag, and the position of
// each original (non-injected) instruction — on a program instrumented
// once that is the origAt remap instrumentKernel returns, which
// TestOriginalPositions (internal/sassi) asserts.
func programDigest(prog *sass.Program) string {
	h := sha256.New()
	for _, k := range prog.Kernels {
		fmt.Fprintf(h, "%s regs=%d local=%d\n", k.Name, k.NumRegs, k.LocalBytes)
		io.WriteString(h, k.Disassemble())
		names := make([]string, 0, len(k.Labels))
		for name := range k.Labels {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "label %s=%d\n", name, k.Labels[name])
		}
		for i := range k.Instrs {
			if k.Instrs[i].Injected {
				io.WriteString(h, "i")
			} else {
				fmt.Fprintf(h, "o%d,", i)
			}
		}
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDisasmGolden pins, as one SHA-256 line per workload × variant, the
// exact output of compile + instrument for every registered workload
// (testdata/disasm.golden). A rewrite of ptxas, the injector or the SASS
// data structures that is meant to be output-neutral must reproduce it;
// regenerate only for an intended change with
// `go test ./internal/workloads -run DisasmGolden -update`.
func TestDisasmGolden(t *testing.T) {
	var b strings.Builder
	variants := disasmVariants()
	for _, spec := range All() {
		for _, v := range variants {
			prog, err := spec.Compile(v.ptxas)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", spec.Name, v.name, err)
			}
			if v.inst != nil {
				opts := *v.inst
				opts.Verify = analysis.VerifyOff
				if err := sassi.Instrument(prog, opts); err != nil {
					t.Fatalf("%s/%s: instrument: %v", spec.Name, v.name, err)
				}
			}
			fmt.Fprintf(&b, "%s %s %s\n", spec.Name, v.name, programDigest(prog))
		}
	}
	compareGolden(t, "disasm.golden", "DisasmGolden", b.String())
}

// TestInstrumentCountersGolden pins the counters Instrument publishes
// (sassi.instrument.*: kernels, sites, injected instructions, per handler
// symbol and in total, and their save/restore share) for every workload ×
// instrumented variant of disasmVariants (testdata/instrument_counters.golden).
// The stream alone does not pin them: they are the injector's own
// accounting of what it emitted.
func TestInstrumentCountersGolden(t *testing.T) {
	var b strings.Builder
	variants := disasmVariants()
	for _, spec := range All() {
		for _, v := range variants {
			if v.inst == nil {
				continue
			}
			prog, err := spec.Compile(v.ptxas)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", spec.Name, v.name, err)
			}
			opts := *v.inst
			opts.Verify = analysis.VerifyOff
			opts.Metrics = obs.NewRegistry()
			if err := sassi.Instrument(prog, opts); err != nil {
				t.Fatalf("%s/%s: instrument: %v", spec.Name, v.name, err)
			}
			fmt.Fprintf(&b, "%s %s", spec.Name, v.name)
			for _, m := range opts.Metrics.Snapshot() {
				if name, ok := strings.CutPrefix(m.Name, "sassi.instrument."); ok {
					fmt.Fprintf(&b, " %s=%d", name, m.Value)
				}
			}
			b.WriteByte('\n')
		}
	}
	compareGolden(t, "instrument_counters.golden", "InstrumentCountersGolden", b.String())
}

// compareGolden holds got to testdata/name line by line, or rewrites the
// file under -update; test is the -run pattern that regenerates it.
func compareGolden(t *testing.T, name, test, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/workloads -run %s -update` to create it)", err, test)
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
