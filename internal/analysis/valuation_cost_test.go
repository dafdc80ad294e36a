package analysis_test

import (
	"testing"
	"unsafe"

	"sassi/internal/analysis"
	"sassi/internal/analysis/concurrency"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/workloads"
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

var sinkGraph *analysis.Graph

// BenchmarkBuildDeps builds the dependence graph the way ptxas's scheduler
// does, on fresh facts: the value fixpoint, dominators and reaching
// definitions it consults are part of each iteration.
func BenchmarkBuildDeps(b *testing.B) {
	cfg := sgemmMemdiv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = analysis.BuildDeps(analysis.NewKernelFacts(cfg))
	}
}

// BenchmarkCheckStructure runs the structural check over every kernel of
// every workload's base, branch and memdiv programs: one op is the whole
// set, the admission work Verify does on the compile-only path.
func BenchmarkCheckStructure(b *testing.B) {
	var ks []*sass.Kernel
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name)[:3] {
			ks = append(ks, compileVariant(b, name, v).Kernels...)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			sinkDiags = analysis.CheckStructure(k)
		}
	}
}

// valuationCeiling is what the value analysis of cfg may allocate: its
// block-entry states and the replay cursor, one register file each in one
// array, the cursor's predication view, a state header per block, and a
// bounded amount per instruction (symbol terms, divergence bookkeeping).
// On the sgemm memdiv kernel that is 28 368 B against 25 672 B measured
// when the entry states came to be allocated once per call, about 10 %
// margin; the states allocated anew on every divergence pass sat at
// 73 233 B, one register file per instruction at 1 016 064 B.
func valuationCeiling(cfg *sass.CFG) (ceiling, regFile uint64) {
	k := cfg.Kernel
	regs := 0
	for i := range k.Instrs {
		for _, r := range k.Instrs[i].GPRDsts() {
			if r != sass.RZ && int(r) >= regs {
				regs = int(r) + 1
			}
		}
	}
	regFile = uint64(regs) * uint64(unsafe.Sizeof(analysis.Value{}))
	nb := uint64(len(cfg.Blocks))
	return (nb+2)*regFile + 256*nb + 12*uint64(len(k.Instrs)), regFile
}

// TestAnalyzeValuesAllocationCeiling keeps the value fixpoint to one set
// of block-entry states per call, reused by every divergence pass, and
// the per-instruction snapshot from coming back (valuationCeiling).
func TestAnalyzeValuesAllocationCeiling(t *testing.T) {
	cfg := sgemmMemdiv(t)
	perCall := allocPerCall(func() { sinkValuation = analysis.AnalyzeValues(cfg) })
	ceiling, regFile := valuationCeiling(cfg)
	t.Logf("%d instrs, %d blocks, %d B register file: %d B/call; ceiling %d B",
		len(cfg.Kernel.Instrs), len(cfg.Blocks), regFile, perCall, ceiling)
	if perCall > ceiling {
		t.Errorf("AnalyzeValues allocates %d B per call, ceiling (blocks+2)·regfile + 256·blocks + 12·instrs = %d B", perCall, ceiling)
	}
}

// TestBuildDepsAllocationCeiling keeps the dependence graph linear in the
// kernel: at most two edges per instruction on the memdiv-instrumented
// sgemm kernel, whose injected fences leave no segment with a memory
// pair, so the value fixpoint never runs; and per call the edges, listed
// in one array of exactly their number, 64 B per instruction (the
// predecessor lists and per-instruction indices of the forward pass) and
// two words per regspace slot. The pairwise pass this replaced listed
// 68 123 edges, 67 811 of them fence edges, in 2 369 024 B per call.
func TestBuildDepsAllocationCeiling(t *testing.T) {
	cfg := sgemmMemdiv(t)
	n := len(cfg.Kernel.Instrs)
	facts := analysis.NewKernelFacts(cfg)
	g := analysis.BuildDeps(facts)
	if runs := facts.ValueRuns(); runs != 0 {
		t.Errorf("BuildDeps ran the value fixpoint %d times, want none: no segment holds a memory pair", runs)
	}
	edges := 0
	for _, bd := range g.Blocks {
		edges += len(bd.Edges)
	}
	if edges > 2*n {
		t.Errorf("%d edges over %d instrs, want at most 2 per instruction", edges, n)
	}
	perCall := allocPerCall(func() { sinkGraph = analysis.BuildDeps(analysis.NewKernelFacts(cfg)) })
	ceiling := uint64(edges)*uint64(unsafe.Sizeof(analysis.Edge{})) + 64*uint64(n) + 16*uint64(analysis.CCBit()+1)
	t.Logf("%d instrs, %d edges: %d B/call; ceiling %d B", n, edges, perCall, ceiling)
	if perCall > ceiling {
		t.Errorf("BuildDeps allocates %d B per call, ceiling edges·sizeof(Edge) + 64·instrs + 16·regspace = %d B", perCall, ceiling)
	}
}

// TestVerifyRunsValueFixpointOncePerKernel: cfi, schedule and concurrency
// all consult the value lattice, and one verification of a kernel plus
// sassi-lint's concurrency lint on the facts it built pays for one
// fixpoint: the checks are handed one facts value, whose Values memoises.
// Verification alone asks for it (cfi always does); the lint reuses it.
// The scheduled compile puts the schedule check on a kernel it certifies;
// the fixpoint it runs on the reconstructed original is over a different
// instruction order, in facts of its own.
func TestVerifyRunsValueFixpointOncePerKernel(t *testing.T) {
	check := func(label string, k *sass.Kernel) {
		t.Helper()
		diags, facts := analysis.VerifyKernelFacts(k)
		if analysis.HasErrors(diags) || facts == nil {
			t.Fatalf("%s %s: does not verify: %v", label, k.Name, diags)
		}
		if n := facts.ValueRuns(); n != 1 {
			t.Errorf("%s %s: verification ran the value fixpoint %d times, want 1", label, k.Name, n)
		}
		concurrency.Check(facts)
		if n := facts.ValueRuns(); n != 1 {
			t.Errorf("%s %s: verification and the concurrency lint ran the value fixpoint %d times, want 1", label, k.Name, n)
		}
	}
	for _, name := range []string{"parboil.sgemm", "rodinia.bfs", "rodinia.srad_v1"} {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				check(name+" "+v.name, k)
			}
		}
		spec, _ := workloads.Get(name)
		prog, err := spec.Compile(ptxas.Options{Schedule: true, Verify: analysis.VerifyOff})
		if err != nil {
			t.Fatalf("%s: scheduled compile: %v", name, err)
		}
		for _, k := range prog.Kernels {
			if k.SchedOrig == nil {
				t.Fatalf("%s %s: scheduled compile recorded no SchedOrig", name, k.Name)
			}
			check(name+" scheduled", k)
		}
	}
}
