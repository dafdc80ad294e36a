package concurrency

import (
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/workloads"
)

// TestBuiltinWorkloadsClean asserts both concurrency passes are silent —
// not even warnings — on every built-in workload: the acceptance bar for
// running them under sassi-lint -Werror in CI.
func TestBuiltinWorkloadsClean(t *testing.T) {
	for _, name := range workloads.Names() {
		spec, _ := workloads.Get(name)
		prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		for _, k := range prog.Kernels {
			cfg, err := sass.BuildCFG(k)
			if err != nil {
				t.Fatalf("%s/%s: cfg: %v", name, k.Name, err)
			}
			for _, d := range Check(analysis.NewKernelFacts(cfg)) {
				t.Errorf("%s: %v", name, d)
			}
		}
	}
}
