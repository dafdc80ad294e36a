package experiments

import (
	"fmt"
	"strings"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/sassi"
)

// Fig5Branch is one branch's bar in Figure 5: per-branch dynamic execution
// counts split into divergent and non-divergent executions, sorted by
// descending execution count.
type Fig5Branch struct {
	InsAddr      int32
	Total        uint64
	Divergent    uint64
	NonDivergent uint64
}

// Figure5 collects per-branch divergence statistics for Parboil bfs on the
// 1M-like and UT-like datasets (the paper's two panels).
func Figure5(env Env) (map[string][]Fig5Branch, error) {
	out := make(map[string][]Fig5Branch)
	for _, dataset := range []string{"1M", "UT"} {
		var p *handlers.BranchProfiler
		_, err := instrumentedRun(env, "parboil.bfs", dataset,
			func(ctx *cuda.Context) (*sassi.Handler, sassi.Options) {
				p = handlers.NewBranchProfiler(ctx)
				return p.Handler(), p.Options()
			})
		if err != nil {
			return nil, err
		}
		rows, err := p.Results()
		if err != nil {
			return nil, err
		}
		var bars []Fig5Branch
		for _, r := range rows {
			bars = append(bars, Fig5Branch{
				InsAddr: r.InsAddr, Total: r.Total,
				Divergent: r.Divergent, NonDivergent: r.Total - r.Divergent,
			})
		}
		out[dataset] = bars
	}
	return out, nil
}

// FormatFigure5 renders per-branch bars as text histograms.
func FormatFigure5(data map[string][]Fig5Branch) string {
	var b strings.Builder
	for _, dataset := range []string{"1M", "UT"} {
		bars := data[dataset]
		b.WriteString(fmt.Sprintf("Figure 5: per-branch divergence, Parboil bfs (%s)\n", dataset))
		b.WriteString(fmt.Sprintf("%-12s %12s %12s %12s  %s\n",
			"branch", "executions", "divergent", "non-diverg.", "divergent share"))
		var max uint64
		for _, bar := range bars {
			if bar.Total > max {
				max = bar.Total
			}
		}
		for _, bar := range bars {
			frac := 0.0
			if bar.Total > 0 {
				frac = float64(bar.Divergent) / float64(bar.Total)
			}
			hist := strings.Repeat("#", int(frac*30+0.5))
			b.WriteString(fmt.Sprintf("0x%08x %12d %12d %12d  %-30s %.1f%%\n",
				uint32(bar.InsAddr), bar.Total, bar.Divergent, bar.NonDivergent, hist, 100*frac))
		}
		b.WriteString("\n")
	}
	return b.String()
}
