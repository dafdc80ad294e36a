package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/analysis/concurrency"
	"sassi/internal/cuda"
	"sassi/internal/difftest"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// TestControlDiagnosticsGolden pins every divergence, cfi and
// barrier-divergence diagnostic — the three checks that walk the warp's
// control stacks — over every workload and mutant, each plain, scheduled
// and under five instrumentations, plus difftest kernels of seeds 0-399.
// Kernels with structural errors are skipped: the deeper checks never see
// them. Regenerate with
// `go test ./internal/analysis -run ControlDiagnosticsGolden -update` only
// when the diagnostics are meant to change.
func TestControlDiagnosticsGolden(t *testing.T) {
	ctx := cuda.NewContext(sim.KeplerK10())
	tools := []struct {
		name string
		opts sassi.Options
	}{
		{"branch", handlers.NewBranchProfiler(ctx).Options()},
		{"memdiv", handlers.NewMemDivProfiler(ctx).Options()},
		{"value", handlers.NewValueProfiler(ctx).Options()},
		{"errorinj", handlers.NewInjProfiler(ctx, 1).Options()},
		{"cfi", handlers.NewCFIChecker().Options()},
	}
	var b strings.Builder
	kernels := 0
	record := func(label string, prog *sass.Program) {
		for _, k := range prog.Kernels {
			if analysis.HasErrors(analysis.CheckStructure(k)) {
				continue
			}
			kernels++
			diags, facts := analysis.VerifyKernelFacts(k)
			if facts != nil {
				diags = append(diags, concurrency.Check(facts)...)
			}
			analysis.SortDiagnostics(diags)
			for _, d := range diags {
				switch d.Check {
				case analysis.CheckDivergence, analysis.CheckCFI, analysis.CheckBarrier:
					fmt.Fprintf(&b, "%s: %s\n", label, d)
				}
			}
		}
	}
	off := ptxas.Options{Verify: analysis.VerifyOff}
	var specs []*workloads.Spec
	for _, name := range workloads.Names() {
		s, _ := workloads.Get(name)
		specs = append(specs, s)
	}
	for _, name := range workloads.MutantNames() {
		s, _ := workloads.GetMutant(name)
		specs = append(specs, s)
	}
	for _, spec := range specs {
		compile := func(opts ptxas.Options) *sass.Program {
			prog, err := spec.Compile(opts)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			return prog
		}
		record(spec.Name+"/plain", compile(off))
		record(spec.Name+"/scheduled", compile(ptxas.Options{Schedule: true, Verify: analysis.VerifyOff}))
		for _, tool := range tools {
			prog := compile(off)
			opts := tool.opts
			opts.Verify = analysis.VerifyOff
			if err := sassi.Instrument(prog, opts); err != nil {
				t.Fatalf("%s: instrument %s: %v", spec.Name, tool.name, err)
			}
			record(spec.Name+"/"+tool.name, prog)
		}
	}
	for seed := uint64(0); seed < 400; seed++ {
		m, err := difftest.Generate(seed, difftest.DefaultSize()).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := ptxas.Compile(m, off)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		record(fmt.Sprintf("difftest/%d", seed), prog)
	}
	fmt.Fprintf(&b, "%d kernels\n", kernels)
	got := b.String()

	golden := filepath.Join("testdata", "control.golden")
	if *analysis.UpdateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analysis -run ControlDiagnosticsGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("control-stack diagnostics changed.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
