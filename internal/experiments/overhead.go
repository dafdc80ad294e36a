package experiments

import (
	"fmt"
	"strings"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/sassi"
	"sassi/internal/workloads"
)

// OverheadTools names the instrumentation tools the overhead report sweeps
// (the three profiling case studies; error injection perturbs execution and
// has no meaningful instruction-count baseline comparison).
var OverheadTools = []string{"branch", "memdiv", "valueprof"}

// OverheadCell is one (workload, tool) measurement: where the extra
// dynamic work came from. InstrSlowdown is instrumented/baseline warp
// instructions — the paper's Figure 4 y-axis analog — and InjectedShare is
// the fraction of the instrumented stream that the instrumentor inserted
// (ABI save/restore plus parameter marshalling; §9.1 attributes ~80% of
// SASSI overhead there). The remainder of the instrumented stream is the
// original program.
type OverheadCell struct {
	Tool string

	WarpInstrs         uint64
	InjectedWarpInstrs uint64
	HandlerCalls       uint64
	Cycles             uint64

	InstrSlowdown float64 // warp instrs vs baseline
	CycleSlowdown float64 // modeled cycles vs baseline
	InjectedShare float64 // injected / instrumented warp instrs
}

// OverheadRow is one workload's baseline and per-tool cells.
type OverheadRow struct {
	App     string
	Dataset string

	BaselineWarpInstrs uint64
	BaselineCycles     uint64
	Launches           int

	Tools []OverheadCell
}

// OverheadApps returns the default workload list for the report: small
// representatives of the suite so the report stays quick.
func OverheadApps() []string {
	return []string{"demo.vecadd", "rodinia.bfs", "parboil.stencil"}
}

// overheadSetup returns the handler+options constructor for a named tool.
func overheadSetup(env Env, tool string) (func(ctx *cuda.Context) (*sassi.Handler, sassi.Options), error) {
	switch tool {
	case "branch":
		return func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
			p := handlers.NewBranchProfiler(ctx)
			return p.Handler(), p.Options()
		}, nil
	case "memdiv":
		return func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
			p := handlers.NewMemDivProfiler(ctx)
			return p.Handler(), p.Options()
		}, nil
	case "valueprof":
		return func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
			p := handlers.NewValueProfiler(ctx)
			return p.Handler(), p.Options()
		}, nil
	case "opcount":
		return func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
			p := handlers.NewOpCounter(ctx)
			return p.Handler(), p.Options()
		}, nil
	}
	return nil, fmt.Errorf("experiments: unknown overhead tool %q", tool)
}

// OverheadReport measures, for each workload × tool, where instrumentation
// overhead comes from: baseline vs instrumented warp-instruction counts,
// the injected share of the instrumented stream, handler call counts, and
// the modeled cycle slowdown. apps/tools nil select the defaults.
func OverheadReport(env Env, apps, tools []string) ([]OverheadRow, error) {
	if apps == nil {
		apps = OverheadApps()
	}
	if tools == nil {
		tools = OverheadTools
	}
	var rows []OverheadRow
	for _, app := range apps {
		spec, ok := workloads.Get(app)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", app)
		}
		dataset := spec.DefaultDataset()
		row := OverheadRow{App: app, Dataset: dataset}

		baseCtx, _, err := baselineRun(env, app, dataset)
		if err != nil {
			return nil, err
		}
		row.BaselineWarpInstrs = baseCtx.TotalWarpInstrs
		row.BaselineCycles = baseCtx.TotalKernelCycles
		row.Launches = baseCtx.Launches()

		for _, tool := range tools {
			setup, err := overheadSetup(env, tool)
			if err != nil {
				return nil, err
			}
			ctx, err := instrumentedRun(env, app, dataset, setup)
			if err != nil {
				return nil, fmt.Errorf("experiments: overhead %s/%s: %w", app, tool, err)
			}
			cell := OverheadCell{
				Tool:               tool,
				WarpInstrs:         ctx.TotalWarpInstrs,
				InjectedWarpInstrs: ctx.TotalInjectedWarpInstrs,
				HandlerCalls:       ctx.TotalHandlerCalls,
				Cycles:             ctx.TotalKernelCycles,
			}
			if row.BaselineWarpInstrs > 0 {
				cell.InstrSlowdown = float64(cell.WarpInstrs) / float64(row.BaselineWarpInstrs)
			}
			if row.BaselineCycles > 0 {
				cell.CycleSlowdown = float64(cell.Cycles) / float64(row.BaselineCycles)
			}
			if cell.WarpInstrs > 0 {
				cell.InjectedShare = float64(cell.InjectedWarpInstrs) / float64(cell.WarpInstrs)
			}
			row.Tools = append(row.Tools, cell)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatOverheadReport renders the rows as the per-workload × per-tool
// breakdown table (the Figure 4 shape: how much bigger the dynamic
// instruction stream got, and how much of it is injected code).
func FormatOverheadReport(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Instrumentation overhead breakdown (per workload x tool)\n")
	b.WriteString(fmt.Sprintf("%-28s %-10s %12s %12s %9s %12s %8s %8s\n",
		"Benchmark", "Tool", "base winstr", "inst winstr", "inj%", "handlers", "xInstr", "xCycles"))
	for _, r := range rows {
		for i, c := range r.Tools {
			name := fmt.Sprintf("%s(%s)", r.App, r.Dataset)
			if i > 0 {
				name = ""
			}
			b.WriteString(fmt.Sprintf("%-28s %-10s %12d %12d %8.1f%% %12d %7.2fx %7.2fx\n",
				name, c.Tool, r.BaselineWarpInstrs, c.WarpInstrs,
				100*c.InjectedShare, c.HandlerCalls, c.InstrSlowdown, c.CycleSlowdown))
		}
	}
	b.WriteString("inj% = injected share of the instrumented warp-instruction stream\n")
	return b.String()
}
