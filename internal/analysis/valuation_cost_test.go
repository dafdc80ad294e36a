package analysis_test

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sassi/internal/analysis"
	_ "sassi/internal/analysis/concurrency" // register barrier-divergence and shared-race
	"sassi/internal/sass"
)

// sgemmMemdiv is the costliest program the benchmark verifies: parboil.sgemm
// under the memory-divergence profiler's instrumentation.
func sgemmMemdiv(t testing.TB) *sass.CFG {
	t.Helper()
	prog := compileVariant(t, "parboil.sgemm", goldenVariants("parboil.sgemm")[2])
	cfg, err := sass.BuildCFG(prog.Kernels[0])
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

var sinkValuation *analysis.Valuation

func BenchmarkAnalyzeValues(b *testing.B) {
	cfg := sgemmMemdiv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkValuation = analysis.AnalyzeValues(cfg)
	}
}

// TestAnalyzeValuesAllocationCeiling keeps the per-instruction snapshot from
// coming back: the fixpoint may allocate a few block-entry states (one
// register file each, a handful of solves when divergence masks grow) and a
// bounded amount per instruction (symbol terms, worklist), never a register
// file per instruction. The bound is a ratio of the kernel's own size; the
// snapshot implementation sat far above it.
func TestAnalyzeValuesAllocationCeiling(t *testing.T) {
	cfg := sgemmMemdiv(t)
	k := cfg.Kernel
	regs := 0
	for i := range k.Instrs {
		for _, r := range k.Instrs[i].GPRDsts() {
			if r != sass.RZ && int(r) >= regs {
				regs = int(r) + 1
			}
		}
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sinkValuation = analysis.AnalyzeValues(cfg)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs

	regFile := uint64(regs) * uint64(unsafe.Sizeof(analysis.Value{}))
	ceiling := 8*uint64(len(cfg.Blocks))*regFile + 256*uint64(len(k.Instrs))
	snapshot := uint64(len(k.Instrs)) * regFile
	t.Logf("%d instrs, %d blocks, %d regs: %d B/call; ceiling %d B, one register file per instruction %d B",
		len(k.Instrs), len(cfg.Blocks), regs, perCall, ceiling, snapshot)
	if perCall > ceiling {
		t.Errorf("AnalyzeValues allocates %d B per call, ceiling 8·blocks·regfile + 256·instrs = %d B", perCall, ceiling)
	}
}

// TestVerifyRunsValueFixpointOncePerKernel: cfi, concurrency and schedule
// all consult the value lattice, and one verification of a kernel pays for
// one fixpoint: the checks are handed one facts value, whose Values
// memoises, and by the end of the verification it holds the fixpoint they
// asked it for.
func TestVerifyRunsValueFixpointOncePerKernel(t *testing.T) {
	for _, c := range []string{analysis.CheckCFI, "concurrency", analysis.CheckSchedule} {
		if !slices.Contains(analysis.RegisteredChecks(), c) {
			t.Fatalf("check %q is not registered in this test binary: %v", c, analysis.RegisteredChecks())
		}
	}
	for _, name := range []string{"parboil.sgemm", "rodinia.bfs", "rodinia.srad_v1"} {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				diags, facts := analysis.VerifyKernelFacts(k)
				if analysis.HasErrors(diags) || facts == nil {
					t.Fatalf("%s %s %s: does not verify: %v", name, v.name, k.Name, diags)
				}
				if n := facts.ValueRuns(); n != 1 {
					t.Errorf("%s %s %s: verification ran the value fixpoint %d times, want 1", name, v.name, k.Name, n)
				}
			}
		}
	}
}
