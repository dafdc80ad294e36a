package sassi_test

import (
	"testing"

	"sassi"
	"sassi/internal/cuda"
	"sassi/internal/experiments"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	isassi "sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// Each benchmark regenerates one of the paper's tables or figures; the
// printed metrics summarize the reproduced result. `go test -bench .`
// therefore re-derives the whole evaluation. The cmd/experiments binary
// prints the full formatted tables.

func benchEnv() experiments.Env {
	return experiments.Env{Config: sim.KeplerK10()}
}

// BenchmarkTable1 regenerates the branch-divergence table (Case Study I).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchEnv())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var worst float64
			for _, r := range rows {
				if r.DynPc > worst {
					worst = r.DynPc
				}
			}
			b.ReportMetric(worst, "worst-dyn-divergent-%")
			b.ReportMetric(float64(len(rows)), "rows")
		}
	}
}

// BenchmarkFigure5 regenerates the per-branch divergence histograms.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Figure5(benchEnv())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(data["1M"])), "branches-1M")
			b.ReportMetric(float64(len(data["UT"])), "branches-UT")
		}
	}
}

// BenchmarkFigure7 regenerates the unique-cacheline PMFs (Case Study II).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(benchEnv())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.App == "minife.csr" {
					b.ReportMetric(100*r.FullyDiverged, "csr-fully-diverged-%")
				}
				if r.App == "minife.ell" {
					b.ReportMetric(r.MeanUnique, "ell-mean-unique-lines")
				}
			}
		}
	}
}

// BenchmarkFigure8 regenerates the occupancy-by-divergence matrices.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchEnv())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.CSR.TotalAccesses()), "csr-warp-accesses")
			b.ReportMetric(float64(r.ELL.TotalAccesses()), "ell-warp-accesses")
		}
	}
}

// BenchmarkTable2 regenerates value profiling over a representative subset
// (pass -bench-table2-full via cmd/experiments for the whole suite).
func BenchmarkTable2(b *testing.B) {
	apps := []string{
		"parboil.bfs", "parboil.sgemm", "parboil.spmv", "parboil.stencil",
		"rodinia.b+tree", "rodinia.backprop", "rodinia.nn", "rodinia.hotspot",
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchEnv(), apps)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var dynConst, dynScalar float64
			for _, r := range rows {
				dynConst += r.DynConstBits
				dynScalar += r.DynScalar
			}
			b.ReportMetric(dynConst/float64(len(rows)), "mean-dyn-const-bits-%")
			b.ReportMetric(dynScalar/float64(len(rows)), "mean-dyn-scalar-%")
		}
	}
}

// BenchmarkFigure10 runs reduced error-injection campaigns (Case Study IV);
// cmd/experiments -injections 1000 reproduces the paper's full scale.
func BenchmarkFigure10(b *testing.B) {
	apps := []string{"rodinia.kmeans", "rodinia.nn", "parboil.histo"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10(benchEnv(), apps, 20, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var masked, crashes float64
			for _, r := range rows {
				masked += r.Result.Fraction(sassi.Masked)
				crashes += r.Result.Fraction(sassi.Crash) + r.Result.Fraction(sassi.Hang)
			}
			b.ReportMetric(100*masked/float64(len(rows)), "mean-masked-%")
			b.ReportMetric(100*crashes/float64(len(rows)), "mean-crash+hang-%")
		}
	}
}

// BenchmarkTable3 measures instrumentation overheads on a subset.
func BenchmarkTable3(b *testing.B) {
	apps := []string{"demo.vecadd", "parboil.sgemm", "parboil.stencil", "rodinia.nn"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchEnv(), apps)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var branch, value float64
			for _, r := range rows {
				branch += r.K[0]
				value += r.K[2]
			}
			b.ReportMetric(branch/float64(len(rows)), "mean-K-branch")
			b.ReportMetric(value/float64(len(rows)), "mean-K-valueprof")
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// instrumentedRunCtx runs one workload under an instrumentation setup and
// returns the context for stats inspection.
func instrumentedRunCtx(b *testing.B, app string, setup func(ctx *cuda.Context) (*isassi.Handler, isassi.Options)) *cuda.Context {
	b.Helper()
	spec, _ := workloads.Get(app)
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := cuda.NewContext(sim.KeplerK10())
	h, opts := setup(ctx)
	if err := isassi.Instrument(prog, opts); err != nil {
		b.Fatal(err)
	}
	rt := isassi.NewRuntime(prog)
	rt.MustRegister(h)
	rt.Attach(ctx.Device())
	if _, err := spec.Run(ctx, prog, spec.DefaultDataset()); err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkAblationABI quantifies §9.1's claim that ABI setup and register
// spilling dominate instrumentation cost: it separates the modeled
// overhead into the injected SASS (spills, parameter objects, call setup)
// versus the handler-body charge. The paper measures ~80% for the former.
func BenchmarkAblationABI(b *testing.B) {
	spec, _ := workloads.Get("parboil.stencil")
	cfg := sim.KeplerK10()
	base := func() uint64 {
		prog, _ := spec.Compile(ptxas.Options{})
		ctx := cuda.NewContext(cfg)
		if _, err := spec.Run(ctx, prog, spec.DefaultDataset()); err != nil {
			b.Fatal(err)
		}
		return ctx.TotalKernelCycles
	}()
	for i := 0; i < b.N; i++ {
		ctx := instrumentedRunCtx(b, "parboil.stencil", func(ctx *cuda.Context) (*isassi.Handler, isassi.Options) {
			p := handlers.NewOpCounter(ctx)
			return p.Handler(), p.Options()
		})
		if i == 0 {
			overhead := float64(ctx.TotalKernelCycles - base)
			bodyCharge := float64(ctx.TotalHandlerCalls) * float64(cfg.HandlerBodyCost)
			b.ReportMetric(100*(overhead-bodyCharge)/overhead, "abi-share-of-overhead-%")
		}
	}
}

// BenchmarkAblationLineSize measures Figure 7 sensitivity to the
// coalescing granularity (32B vs 128B lines).
func BenchmarkAblationLineSize(b *testing.B) {
	for _, bits := range []uint{5, 7} {
		bits := bits
		b.Run(map[uint]string{5: "32B", 7: "128B"}[bits], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var p *handlers.MemDivProfiler
				spec, _ := workloads.Get("minife.csr")
				prog, err := spec.Compile(ptxas.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ctx := cuda.NewContext(sim.KeplerK10())
				p = handlers.NewMemDivProfiler(ctx)
				p.OffsetBits = bits
				opts := p.Options()
				if err := isassi.Instrument(prog, opts); err != nil {
					b.Fatal(err)
				}
				rt := isassi.NewRuntime(prog)
				rt.MustRegister(p.Handler())
				rt.Attach(ctx.Device())
				if _, err := spec.Run(ctx, prog, "default"); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					m, _ := p.Matrix()
					pmf := m.UniqueLinePMF()
					var mean float64
					for u, f := range pmf {
						mean += float64(u+1) * f
					}
					b.ReportMetric(mean, "mean-unique-lines")
				}
			}
		})
	}
}
