package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/workloads"
)

// PCSampPeriods are the sampling cadences the accuracy report sweeps.
// pcsamp.DefaultPeriod sits in the middle; period 1 is the exact ground
// truth the sweep is judged against (same metric, no sampling error).
var PCSampPeriods = []uint64{10, pcsamp.DefaultPeriod, 1000}

// PCSampRow is one (app, period) accuracy measurement: how well the
// period-P sampled profile reproduces the period-1 exact cycle profile,
// cross-validated against exact SASSI per-instruction execution counts.
type PCSampRow struct {
	App     string
	Period  uint64
	PCs     int     // distinct PCs in the exact profile
	Samples uint64  // period-weighted samples collected at this period
	Rank    float64 // Spearman rank correlation, sampled vs exact cycles
	Top5    float64 // fraction of the exact top-5 PCs the sample's top-5 recovers
	MeanErr float64 // mean relative per-PC cycle error over the exact top-90% PCs
	// ExecRank cross-validates against an independent ground truth: the
	// Spearman correlation between the sampled cycle ranking and exact
	// SASSI warp-execution counts weighted by static issue cost. It is
	// period-dependent only through sampling noise; memory stall time
	// (invisible to an execution counter) bounds it below 1.0 even at
	// period 1.
	ExecRank float64
}

// PCSampReport measures PC-sampling accuracy for each app: profile each
// workload uninstrumented at period 1 (exact) and at each sweep period
// (estimated), and compare per-PC cycle attributions. Defaults to the
// short-gate apps when apps is empty.
func PCSampReport(env Env, apps []string) ([]PCSampRow, error) {
	if len(apps) == 0 {
		apps = []string{"parboil.sgemm", "parboil.bfs", "parboil.stencil"}
	}
	var rows []PCSampRow
	for _, app := range apps {
		spec, ok := workloads.Get(app)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", app)
		}
		ds := spec.DefaultDataset()
		exact, err := pcsampProfile(env, spec, ds, 1)
		if err != nil {
			return nil, err
		}
		truth := exact.PCCycles()
		execCycles, err := pcsampExecCycles(env, spec, ds)
		if err != nil {
			return nil, err
		}
		for _, period := range PCSampPeriods {
			est, err := pcsampProfile(env, spec, ds, period)
			if err != nil {
				return nil, err
			}
			got := est.PCCycles()
			rows = append(rows, PCSampRow{
				App:      app,
				Period:   period,
				PCs:      len(truth),
				Samples:  est.TotalSamples(),
				Rank:     spearman(truth, got),
				Top5:     topNOverlap(truth, got, 5),
				MeanErr:  meanRelErr(truth, got, 0.9),
				ExecRank: spearman(execCycles, got),
			})
		}
	}
	return rows, nil
}

// pcsampProfile runs the workload uninstrumented with a private sampler at
// the given period and returns the merged profile.
func pcsampProfile(env Env, spec *workloads.Spec, dataset string, period uint64) (*pcsamp.Profile, error) {
	prog, err := spec.CompileCached(env.Cache, ptxas.Options{})
	if err != nil {
		return nil, err
	}
	ctx := cuda.NewContext(env.Config)
	s := pcsamp.New(period)
	ctx.Device().PCSamp = s
	res, err := spec.Run(ctx, prog, dataset)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s(%s) sampled run: %w", spec.Name, dataset, err)
	}
	if res.VerifyErr != nil {
		return nil, fmt.Errorf("experiments: %s(%s) sampled run failed verification: %w",
			spec.Name, dataset, res.VerifyErr)
	}
	return s.Profile(), nil
}

// pcsampExecCycles runs the workload under the exact SASSI per-instruction
// profiler and converts warp-execution counts into issue-cost-weighted
// cycles per original PC. Instrumentation reports original instruction
// offsets, so the keys line up with the uninstrumented sampled profile.
func pcsampExecCycles(env Env, spec *workloads.Spec, dataset string) (map[pcsamp.PCKey]uint64, error) {
	ctx := cuda.NewContext(env.Config)
	prof := handlers.NewPCProfiler(ctx)
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		return nil, err
	}
	if err := sassi.Instrument(prog, prof.Options()); err != nil {
		return nil, err
	}
	rt := sassi.NewRuntime(prog)
	if err := rt.Register(prof.Handler()); err != nil {
		return nil, err
	}
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, dataset)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s(%s) exact profile run: %w", spec.Name, dataset, err)
	}
	if res.VerifyErr != nil {
		return nil, fmt.Errorf("experiments: %s(%s) exact profile failed verification: %w",
			spec.Name, dataset, res.VerifyErr)
	}
	counts, err := prof.Counts()
	if err != nil {
		return nil, err
	}
	out := make(map[pcsamp.PCKey]uint64, len(counts))
	for addr, execs := range counts {
		ki := int(addr>>20) - 1
		if ki < 0 || ki >= len(prog.Kernels) {
			continue
		}
		k := prog.Kernels[ki]
		idx := sass.IndexOfOffset(addr & 0xFFFFF)
		if idx < 0 || idx >= len(k.Instrs) {
			continue
		}
		cost := uint64(sass.IssueCost(&k.Instrs[idx]))
		out[pcsamp.PCKey{Kernel: k.Name, PC: int32(idx)}] += execs * cost
	}
	return out, nil
}

// spearman computes the Spearman rank correlation between two per-PC maps
// over the union of their keys (missing PCs count as zero), with averaged
// ranks for ties.
func spearman(a, b map[pcsamp.PCKey]uint64) float64 {
	keys := unionKeys(a, b)
	if len(keys) < 2 {
		return 1
	}
	ra := ranks(keys, a)
	rb := ranks(keys, b)
	return pearson(ra, rb)
}

func unionKeys(a, b map[pcsamp.PCKey]uint64) []pcsamp.PCKey {
	set := make(map[pcsamp.PCKey]struct{}, len(a)+len(b))
	for k := range a {
		set[k] = struct{}{}
	}
	for k := range b {
		set[k] = struct{}{}
	}
	keys := make([]pcsamp.PCKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kernel != keys[j].Kernel {
			return keys[i].Kernel < keys[j].Kernel
		}
		return keys[i].PC < keys[j].PC
	})
	return keys
}

// ranks returns tie-averaged ranks of vals[keys[i]].
func ranks(keys []pcsamp.PCKey, vals map[pcsamp.PCKey]uint64) []float64 {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return vals[keys[idx[x]]] < vals[keys[idx[y]]]
	})
	out := make([]float64, len(keys))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && vals[keys[idx[j]]] == vals[keys[idx[i]]] {
			j++
		}
		r := float64(i+j-1)/2 + 1 // average rank of the tie group
		for k := i; k < j; k++ {
			out[idx[k]] = r
		}
		i = j
	}
	return out
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 1 // both constant (or one is): degenerate, call it agreement
	}
	return sxy / math.Sqrt(sxx*syy)
}

// topNOverlap reports what fraction of the exact top-n PCs the estimated
// top-n recovers (n shrinks to the exact profile size when smaller).
func topNOverlap(truth, est map[pcsamp.PCKey]uint64, n int) float64 {
	t := topN(truth, n)
	if len(t) == 0 {
		return 1
	}
	e := topN(est, len(t))
	hits := 0
	for _, k := range t {
		for _, g := range e {
			if k == g {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(t))
}

func topN(vals map[pcsamp.PCKey]uint64, n int) []pcsamp.PCKey {
	keys := unionKeys(vals, nil)
	sort.SliceStable(keys, func(i, j int) bool {
		if vals[keys[i]] != vals[keys[j]] {
			return vals[keys[i]] > vals[keys[j]]
		}
		if keys[i].Kernel != keys[j].Kernel {
			return keys[i].Kernel < keys[j].Kernel
		}
		return keys[i].PC < keys[j].PC
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// meanRelErr averages |est-truth|/truth over the hottest exact PCs that
// together cover the given fraction of total exact cycles — the tail of
// near-zero PCs would otherwise dominate with meaningless relative errors.
func meanRelErr(truth, est map[pcsamp.PCKey]uint64, cover float64) float64 {
	keys := topN(truth, len(truth))
	var total uint64
	for _, v := range truth {
		total += v
	}
	if total == 0 {
		return 0
	}
	var sum float64
	var n int
	var seen uint64
	for _, k := range keys {
		tv := truth[k]
		if tv == 0 {
			break
		}
		sum += math.Abs(float64(est[k])-float64(tv)) / float64(tv)
		n++
		seen += tv
		if float64(seen) >= cover*float64(total) {
			break
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FormatPCSampReport renders the accuracy table.
func FormatPCSampReport(rows []PCSampRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PC-sampling accuracy vs exact (period-1) cycle profile\n")
	fmt.Fprintf(&b, "%-18s %7s %5s %10s %6s %6s %8s %9s\n",
		"app", "period", "pcs", "samples", "rank", "top5", "meanerr", "execrank")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %7d %5d %10d %6.3f %6.2f %7.1f%% %9.3f\n",
			r.App, r.Period, r.PCs, r.Samples, r.Rank, r.Top5, 100*r.MeanErr, r.ExecRank)
	}
	return b.String()
}

// AssertPCSampTop5 fails when any app's top-5 agreement at the default
// sampling period falls below min — the CI accuracy smoke gate.
func AssertPCSampTop5(rows []PCSampRow, min float64) error {
	for _, r := range rows {
		if r.Period == pcsamp.DefaultPeriod && r.Top5 < min {
			return fmt.Errorf("experiments: %s top-5 agreement %.2f < %.2f at period %d",
				r.App, r.Top5, min, r.Period)
		}
	}
	return nil
}
