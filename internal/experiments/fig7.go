package experiments

import (
	"fmt"
	"strings"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/mem"
	"sassi/internal/sassi"
)

// Fig7Row is one application's unique-cacheline PMF (Figure 7): the
// fraction of thread-level memory accesses issued from warp instructions
// touching N unique 32B lines, N = 1..32.
type Fig7Row struct {
	App     string
	Dataset string
	PMF     [32]float64
	// MeanUnique is the PMF's mean — a one-number divergence summary.
	MeanUnique float64
	// FullyDiverged is the N=32 share (the paper highlights miniFE-CSR's
	// 0.73 here).
	FullyDiverged float64
}

// fig7Apps mirrors the paper's Figure 7 application list.
var fig7Apps = []struct {
	app, dataset string
}{
	{"parboil.bfs", "NY"},
	{"parboil.bfs", "SF"},
	{"parboil.bfs", "UT"},
	{"parboil.spmv", "small"},
	{"parboil.spmv", "medium"},
	{"parboil.spmv", "large"},
	{"rodinia.bfs", "default"},
	{"rodinia.heartwall", "small"},
	{"parboil.mri-gridding", "small"},
	{"minife.ell", "default"},
	{"minife.csr", "default"},
}

// memDivMatrix profiles one app with the Case Study II handler.
func memDivMatrix(env Env, app, dataset string) (*mem.DivergenceMatrix, error) {
	var p *handlers.MemDivProfiler
	_, err := instrumentedRun(env, app, dataset,
		func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
			p = handlers.NewMemDivProfiler(ctx)
			return p.Handler(), p.Options()
		})
	if err != nil {
		return nil, err
	}
	return p.Matrix()
}

// Figure7 computes the unique-line PMFs for the paper's application list.
func Figure7(env Env) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, a := range fig7Apps {
		m, err := memDivMatrix(env, a.app, a.dataset)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{App: a.app, Dataset: a.dataset, PMF: m.UniqueLinePMF()}
		for u, f := range row.PMF {
			row.MeanUnique += float64(u+1) * f
		}
		row.FullyDiverged = row.PMF[31]
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure7 renders the PMFs as a table plus summary columns.
func FormatFigure7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: PMF of unique 32B cachelines per warp memory instruction\n")
	b.WriteString(fmt.Sprintf("%-26s %6s %6s %6s %6s %6s %7s | %6s %8s\n",
		"app (dataset)", "N=1", "N=2", "N=4", "N=8", "N=16", "N=32", "mean", "N=32 pct"))
	for _, r := range rows {
		name := fmt.Sprintf("%s (%s)", r.App, r.Dataset)
		b.WriteString(fmt.Sprintf("%-26s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %6.1f%% | %6.2f %7.1f%%\n",
			name, 100*r.PMF[0], 100*r.PMF[1], 100*r.PMF[3], 100*r.PMF[7],
			100*r.PMF[15], 100*r.PMF[31], r.MeanUnique, 100*r.FullyDiverged))
	}
	return b.String()
}

// Fig8Result carries the two occupancy-by-divergence matrices of Figure 8.
type Fig8Result struct {
	CSR *mem.DivergenceMatrix
	ELL *mem.DivergenceMatrix
}

// Figure8 computes the miniFE CSR-vs-ELL matrices.
func Figure8(env Env) (*Fig8Result, error) {
	csr, err := memDivMatrix(env, "minife.csr", "default")
	if err != nil {
		return nil, err
	}
	ell, err := memDivMatrix(env, "minife.ell", "default")
	if err != nil {
		return nil, err
	}
	return &Fig8Result{CSR: csr, ELL: ell}, nil
}

// FormatFigure8 renders each matrix as a log-scaled character heatmap
// (x: warp occupancy, y: unique lines), the text analog of the paper's
// scatter plots.
func FormatFigure8(r *Fig8Result) string {
	var b strings.Builder
	render := func(name string, m *mem.DivergenceMatrix) {
		b.WriteString(fmt.Sprintf("Figure 8 (%s): warp occupancy (x) vs unique lines (y); . < 10 <= + < 100 <= * < 1000 <= @\n", name))
		for u := 31; u >= 0; u-- {
			b.WriteString(fmt.Sprintf("%2d |", u+1))
			for act := 0; act < 32; act++ {
				c := m.Counts[act][u]
				switch {
				case c == 0:
					b.WriteByte(' ')
				case c < 10:
					b.WriteByte('.')
				case c < 100:
					b.WriteByte('+')
				case c < 1000:
					b.WriteByte('*')
				default:
					b.WriteByte('@')
				}
			}
			b.WriteString("|\n")
		}
		b.WriteString("    " + strings.Repeat("-", 32) + "\n")
		b.WriteString("     1       8       16      24  32 (active threads)\n\n")
	}
	render("miniFE-CSR", r.CSR)
	render("miniFE-ELL", r.ELL)
	return b.String()
}
