package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/sassi"
	"sassi/internal/workloads"
)

// Table3Row is one benchmark's overhead measurements (paper Table 3). For
// each case study, T is total (wall-clock) runtime relative to the
// uninstrumented baseline and K is device-side (modeled kernel cycles)
// runtime relative to baseline. In this reproduction the "hardware" is a
// simulator, so K is the faithful column; T additionally absorbs the Go
// cost of simulating the injected code and running handlers.
type Table3Row struct {
	App      string
	Baseline struct {
		Wall     time.Duration
		Cycles   uint64
		Launches int
	}
	// Indexed by case study: 0=branch, 1=memdiv, 2=valueprof, 3=errorinj.
	T [4]float64
	K [4]float64
}

// CaseStudyNames labels Table 3's column groups.
var CaseStudyNames = [4]string{"Cond. Branches", "Memory Divergence", "Value Profiling", "Error Injection"}

// Table3Apps returns the default application list (the full suite).
func Table3Apps() []string { return workloads.Names() }

// Table3 measures instrumentation overheads for all four case studies.
func Table3(env Env, apps []string) ([]Table3Row, error) {
	if apps == nil {
		apps = Table3Apps()
	}
	var rows []Table3Row
	for _, app := range apps {
		spec, ok := workloads.Get(app)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", app)
		}
		dataset := spec.DefaultDataset()
		row := Table3Row{App: app}

		baseCtx, wall, err := baselineRun(env, app, dataset)
		if err != nil {
			return nil, err
		}
		row.Baseline.Wall = wall
		row.Baseline.Cycles = baseCtx.TotalKernelCycles
		row.Baseline.Launches = baseCtx.Launches()

		setups := [4]func(ctx *cuda.Context) (*sassi.Handler, sassi.Options){
			func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
				p := handlers.NewBranchProfiler(ctx)
				return p.Handler(), p.Options()
			},
			func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
				p := handlers.NewMemDivProfiler(ctx)
				return p.Handler(), p.Options()
			},
			func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
				p := handlers.NewValueProfiler(ctx)
				return p.Handler(), p.Options()
			},
			func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
				inj := handlers.NewInjector(handlers.InjectionSite{})
				return inj.Handler(), inj.Options()
			},
		}
		for cs, setup := range setups {
			start := time.Now()
			ctx, err := instrumentedRun(env, app, dataset, setup)
			if err != nil {
				return nil, fmt.Errorf("experiments: table3 %s/%s: %w", app, CaseStudyNames[cs], err)
			}
			instWall := time.Since(start)
			if wall > 0 {
				row.T[cs] = float64(instWall) / float64(wall)
			}
			if row.Baseline.Cycles > 0 {
				row.K[cs] = float64(ctx.TotalKernelCycles) / float64(row.Baseline.Cycles)
			}
		}
		rows = append(rows, row)
	}
	// The paper sorts by GPU-bound-ness; sort by baseline kernel cycles.
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].Baseline.Cycles < rows[j].Baseline.Cycles
	})
	return rows, nil
}

// FormatTable3 renders the rows in the paper's layout, with min/max/mean.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Instrumentation overheads (T = wall vs baseline, K = kernel cycles vs baseline)\n")
	b.WriteString(fmt.Sprintf("%-24s %10s %10s | %6s %6s | %6s %6s | %6s %6s | %6s %6s\n",
		"Benchmark", "t (wall)", "k cycles",
		"T1", "K1", "T2", "K2", "T3", "K3", "T4", "K4"))
	var minK, maxK [4]float64
	var sumT, sumK [4]float64
	for i := range minK {
		minK[i] = 1e18
	}
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-24s %10s %10d | %5.1ft %5.1fk | %5.1ft %5.1fk | %5.1ft %5.1fk | %5.1ft %5.1fk\n",
			r.App, r.Baseline.Wall.Round(time.Microsecond), r.Baseline.Cycles,
			r.T[0], r.K[0], r.T[1], r.K[1], r.T[2], r.K[2], r.T[3], r.K[3]))
		for cs := 0; cs < 4; cs++ {
			if r.K[cs] < minK[cs] {
				minK[cs] = r.K[cs]
			}
			if r.K[cs] > maxK[cs] {
				maxK[cs] = r.K[cs]
			}
			sumT[cs] += r.T[cs]
			sumK[cs] += r.K[cs]
		}
	}
	if n := float64(len(rows)); n > 0 {
		b.WriteString(fmt.Sprintf("%-24s %21s | %5s %5.1fk | %5s %5.1fk | %5s %5.1fk | %5s %5.1fk  (min K)\n",
			"Minimum", "", "", minK[0], "", minK[1], "", minK[2], "", minK[3]))
		b.WriteString(fmt.Sprintf("%-24s %21s | %5s %5.1fk | %5s %5.1fk | %5s %5.1fk | %5s %5.1fk  (max K)\n",
			"Maximum", "", "", maxK[0], "", maxK[1], "", maxK[2], "", maxK[3]))
		b.WriteString(fmt.Sprintf("%-24s %21s | %5.1ft %5.1fk | %5.1ft %5.1fk | %5.1ft %5.1fk | %5.1ft %5.1fk  (mean)\n",
			"Mean", "",
			sumT[0]/n, sumK[0]/n, sumT[1]/n, sumK[1]/n,
			sumT[2]/n, sumK[2]/n, sumT[3]/n, sumK[3]/n))
	}
	b.WriteString("Case studies: 1=cond branches, 2=memory divergence, 3=value profiling, 4=error injection\n")
	return b.String()
}
