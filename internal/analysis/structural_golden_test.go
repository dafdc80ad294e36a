package analysis_test

import (
	"fmt"
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

// launchGPRs is the GPR count the launch bounds k by and sizes a warp's
// scoreboard to: the highest register figure sass.Kernel.CheckInstr
// returns for an instruction of k.
func launchGPRs(k *sass.Kernel) int {
	n := 0
	for i := range k.Instrs {
		gprs, _ := k.CheckInstr(i)
		n = max(n, gprs)
	}
	return n
}

// structuralLine renders what admission decides about k: its register
// count, the GPR figure the launch bounds, and every CheckStructure finding.
func structuralLine(k *sass.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s NumRegs=%d gprs=%d", k.Name, k.NumRegs, launchGPRs(k))
	for _, d := range analysis.CheckStructure(k) {
		fmt.Fprintf(&b, " | %s", d)
	}
	return b.String()
}

// TestStructuralGolden pins the structural findings and the launch's
// register figure on every workload under every golden variant and on
// difftest kernels of seeds 0-399, so a change to how a kernel is admitted
// shows kernel by kernel.
// Regenerate (only when admission is meant to change) with
// `go test ./internal/analysis -run StructuralGolden -update`.
func TestStructuralGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				fmt.Fprintf(&b, "%s %s %s\n", name, v.name, structuralLine(k))
			}
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
			fmt.Fprintf(&b, "difftest/%d %s\n", seed, structuralLine(k))
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "structural.golden")
	if *analysis.UpdateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analysis -run StructuralGolden -update` to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("structural golden has %d kernels, this run %d", len(wl)-1, len(gl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("admission changed:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}
