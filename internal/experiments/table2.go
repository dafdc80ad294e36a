package experiments

import (
	"fmt"
	"strings"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/workloads"
)

// Table2Row is one benchmark's value-profiling summary (paper Table 2):
// the dynamic and static percentages of constant register bits and of
// scalar (warp-invariant) register writes.
type Table2Row struct {
	App           string
	DynConstBits  float64
	DynScalar     float64
	StatConstBits float64
	StatScalar    float64
}

// Table2Apps returns the default application list: the whole suite on
// default datasets (the paper profiles all of Parboil and Rodinia).
func Table2Apps() []string { return workloads.Names() }

// Table2 runs Case Study III over the given applications (nil = all).
func Table2(env Env, apps []string) ([]Table2Row, error) {
	if apps == nil {
		apps = Table2Apps()
	}
	var rows []Table2Row
	for _, app := range apps {
		spec, ok := workloads.Get(app)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", app)
		}
		var p *handlers.ValueProfiler
		_, err := instrumentedRun(env, app, spec.DefaultDataset(),
			func(ctx *cuda.Context) handlers.Tool {
				p = handlers.NewValueProfiler(ctx)
				return p
			})
		if err != nil {
			return nil, err
		}
		s, err := p.Summarize()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			App:          app,
			DynConstBits: s.DynConstBitsPc, DynScalar: s.DynScalarPc,
			StatConstBits: s.StatConstBitsPc, StatScalar: s.StatScalarPc,
		})
	}
	return rows, nil
}

// FormatTable2 renders the rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Results for value profiling\n")
	b.WriteString(fmt.Sprintf("%-24s | %10s %8s | %10s %8s\n",
		"Benchmark", "dyn const%", "scalar%", "stat const%", "scalar%"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-24s | %10.0f %8.0f | %10.0f %8.0f\n",
			r.App, r.DynConstBits, r.DynScalar, r.StatConstBits, r.StatScalar))
	}
	return b.String()
}
