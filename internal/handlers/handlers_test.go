package handlers_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// run executes a workload with the given profiler wiring and returns after
// the run verifies.
func run(t *testing.T, workload, dataset string, setup func(ctx *cuda.Context) (*sassi.Handler, sassi.Options)) {
	t.Helper()
	spec, ok := workloads.Get(workload)
	if !ok {
		t.Fatalf("workload %s not registered", workload)
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// SMs run one after another: parboil.bfs's ticket-queue frontier makes
	// cross-SM interleaving observable (nondeterministic on real GPUs too),
	// so runs that are compared need the deterministic reference schedule.
	cfg := sim.MiniGPU()
	cfg.SequentialSMs = true
	ctx := cuda.NewContext(cfg)
	h, opts := setup(ctx)
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatalf("instrument: %v", err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(h)
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, dataset)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("instrumented run no longer verifies: %v", res.VerifyErr)
	}
}

// TestBranchProfilerConvergedKernel: sgemm must report zero divergence
// (paper Table 1).
func TestBranchProfilerConvergedKernel(t *testing.T) {
	var p *handlers.BranchProfiler
	run(t, "parboil.sgemm", "small", func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
		p = handlers.NewBranchProfiler(ctx)
		return p.Handler(), p.Options()
	})
	s, err := p.Summarize()
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	if s.DynamicDivergent != 0 {
		t.Errorf("sgemm reported %d divergent branch executions, want 0", s.DynamicDivergent)
	}
	if s.DynamicBranches == 0 {
		t.Error("sgemm reported no branches at all")
	}
}

// TestBranchProfilerDivergentKernel: bfs on the UT graph must report
// divergent branch executions (paper Table 1).
func TestBranchProfilerDivergentKernel(t *testing.T) {
	var p *handlers.BranchProfiler
	run(t, "parboil.bfs", "UT", func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
		p = handlers.NewBranchProfiler(ctx)
		return p.Handler(), p.Options()
	})
	s, err := p.Summarize()
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	if s.DynamicBranches == 0 || s.DynamicDivergent == 0 {
		t.Errorf("bfs should have divergent branches: %+v", s)
	}
}

// TestValueProfilerSummary: vecadd writes registers with constant bits
// (addresses, indices) and warp-uniform values (paper Table 2).
func TestValueProfilerSummary(t *testing.T) {
	var p *handlers.ValueProfiler
	run(t, "demo.vecadd", "small", func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
		p = handlers.NewValueProfiler(ctx)
		return p.Handler(), p.Options()
	})
	s, err := p.Summarize()
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	if s.DynConstBitsPc == 0 || s.DynScalarPc == 0 || s.DynScalarPc == 100 {
		t.Errorf("vecadd should show constant bits and a mix of scalar and vector writes: %+v", s)
	}
}

// TestMemDivCoalescedVsScattered: the ELL kernel must request far fewer
// unique lines per access than the CSR kernel on the same matrix (the
// Figure 7/8 contrast).
func TestMemDivCoalescedVsScattered(t *testing.T) {
	avg := func(workload string) float64 {
		var p *handlers.MemDivProfiler
		run(t, workload, "default", func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
			p = handlers.NewMemDivProfiler(ctx)
			return p.Handler(), p.Options()
		})
		m, err := p.Matrix()
		if err != nil {
			t.Fatalf("matrix: %v", err)
		}
		pmf := m.UniqueLinePMF()
		var mean float64
		for u, frac := range pmf {
			mean += float64(u+1) * frac
		}
		return mean
	}
	csr := avg("minife.csr")
	ell := avg("minife.ell")
	t.Logf("mean unique lines per warp access: CSR=%.2f ELL=%.2f", csr, ell)
	if ell >= csr {
		t.Errorf("ELL (%.2f) should be less address-divergent than CSR (%.2f)", ell, csr)
	}
}
