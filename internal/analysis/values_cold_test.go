package analysis_test

import (
	"fmt"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/difftest"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/workloads"
)

// TestValuesWarmEqualsCold: the value analysis starts each divergence pass
// after the first from the previous pass's fixpoint and re-queues only the
// blocks whose merge mask grew. Its block-entry states must equal, bit for
// bit, those of solving every pass from scratch, on every workload kernel
// under every golden variant and on difftest kernels of seeds 0-399. The
// test fails as well if no kernel needs a second pass, where the two
// cannot differ.
func TestValuesWarmEqualsCold(t *testing.T) {
	kernels, warm := 0, 0
	check := func(label string, k *sass.Kernel) {
		t.Helper()
		cfg, err := sass.BuildCFG(k)
		if err != nil {
			t.Fatalf("%s %s: %v", label, k.Name, err)
		}
		mismatch, passes := analysis.ColdSolveMismatch(cfg)
		if mismatch != "" {
			t.Errorf("%s %s: warm restart differs from a cold solve: %s", label, k.Name, mismatch)
		}
		kernels++
		if passes > 1 {
			warm++
		}
	}
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				check(name+" "+v.name, k)
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
			check(fmt.Sprintf("difftest/%d", seed), k)
		}
	}
	t.Logf("%d kernels, %d of them solved more than once", kernels, warm)
	if warm == 0 {
		t.Error("no kernel needed a second divergence pass: the warm restart went untested")
	}
}
