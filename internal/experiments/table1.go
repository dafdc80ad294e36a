package experiments

import (
	"fmt"
	"strings"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
)

// Table1Row is one benchmark's branch-divergence summary (paper Table 1).
type Table1Row struct {
	Suite    string
	Bench    string
	Dataset  string
	Static   int     // total static branches
	StaticD  int     // static branches that ever diverged
	StaticPc float64 // %
	Dynamic  uint64  // dynamic (warp-level) branch executions
	DynamicD uint64  // dynamic divergent executions
	DynPc    float64 // %
}

// table1Apps mirrors the paper's Table 1 benchmark/dataset list.
var table1Apps = []struct {
	suite, workload, dataset string
}{
	{"Parboil", "parboil.bfs", "1M"},
	{"Parboil", "parboil.bfs", "NY"},
	{"Parboil", "parboil.bfs", "SF"},
	{"Parboil", "parboil.bfs", "UT"},
	{"Parboil", "parboil.sgemm", "small"},
	{"Parboil", "parboil.sgemm", "medium"},
	{"Parboil", "parboil.tpacf", "small"},
	{"Rodinia", "rodinia.bfs", "default"},
	{"Rodinia", "rodinia.gaussian", "small"},
	{"Rodinia", "rodinia.heartwall", "small"},
	{"Rodinia", "rodinia.srad_v1", "small"},
	{"Rodinia", "rodinia.srad_v2", "small"},
	{"Rodinia", "rodinia.streamcluster", "small"},
}

// Table1 runs Case Study I over the paper's benchmark list.
func Table1(env Env) ([]Table1Row, error) {
	var rows []Table1Row
	for _, app := range table1Apps {
		var p *handlers.BranchProfiler
		_, err := instrumentedRun(env, app.workload, app.dataset,
			func(ctx *cuda.Context) handlers.Tool {
				p = handlers.NewBranchProfiler(ctx)
				return p
			})
		if err != nil {
			return nil, err
		}
		s, err := p.Summarize()
		if err != nil {
			return nil, err
		}
		bench := app.workload
		if i := strings.IndexByte(bench, '.'); i >= 0 {
			bench = bench[i+1:]
		}
		rows = append(rows, Table1Row{
			Suite: app.suite, Bench: bench, Dataset: app.dataset,
			Static: s.StaticBranches, StaticD: s.StaticDivergent, StaticPc: s.StaticDivergentPc,
			Dynamic: s.DynamicBranches, DynamicD: s.DynamicDivergent, DynPc: s.DynDivergentPc,
		})
	}
	return rows, nil
}

// FormatTable1 renders the rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Average branch divergence statistics\n")
	b.WriteString(fmt.Sprintf("%-28s %8s %9s %6s | %12s %12s %6s\n",
		"Benchmark (Dataset)", "Static", "Diverg.", "%", "Dynamic", "Divergent", "%"))
	for _, r := range rows {
		name := fmt.Sprintf("%s.%s (%s)", strings.ToLower(r.Suite), r.Bench, r.Dataset)
		b.WriteString(fmt.Sprintf("%-28s %8d %9d %6.1f | %12d %12d %6.1f\n",
			name, r.Static, r.StaticD, r.StaticPc, r.Dynamic, r.DynamicD, r.DynPc))
	}
	return b.String()
}
