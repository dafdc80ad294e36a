package experiments

import (
	"errors"
	"fmt"
	"strings"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/fanout"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/workloads"
)

// SchedRow is one application's autotuning result: simulated cycles of
// the unscheduled baseline, the deterministic heuristic schedule
// (SchedSeed 0), and the best candidate found in the seed sweep.
type SchedRow struct {
	App        string
	BaseCycles uint64 // unscheduled compile
	HeurCycles uint64 // scheduler with seed 0 (deterministic tie-break)
	BestCycles uint64 // winner of the sweep
	BestSeed   uint64 // SchedSeed that produced BestCycles
	Candidates int    // schedules evaluated (including seed 0)
	Rejected   int    // candidates failing the verifier or bit-equality (expect 0)
}

// Speedup is BaseCycles/BestCycles.
func (r SchedRow) Speedup() float64 {
	if r.BestCycles == 0 {
		return 0
	}
	return float64(r.BaseCycles) / float64(r.BestCycles)
}

// SchedApps returns the default autotuning application list: the three
// golden-pinned parboil kernels plus two rodinia kernels with different
// memory/ALU mixes.
func SchedApps() []string {
	return []string{"parboil.sgemm", "parboil.stencil", "parboil.bfs",
		"rodinia.hotspot", "parboil.mri-q"}
}

// schedCandidate is one evaluated schedule.
type schedCandidate struct {
	cycles uint64
	ok     bool
}

// SchedTable autotunes each application's instruction schedule: compile
// with the list scheduler under `candidates` different tie-break seeds
// (seed index 0 is the deterministic heuristic; the rest are splitmix
// jitters of `seed`), fan the candidate evaluations out with fanout.Run,
// and keep the schedule with the fewest simulated cycles.
//
// Every candidate is double-gated before it may win:
//
//   - statically, the compile runs with Verify on, so the `schedule`
//     check must certify the permutation against the dependence DAG;
//   - dynamically, the run must still pass the workload's CPU-reference
//     verification AND match the unscheduled baseline's output buffer and
//     stdout byte-for-byte (no tolerance — a schedule may only move time,
//     never bits).
//
// Candidate cycle counts are a pure function of (app, schedSeed): every
// measurement runs on the sequential-SM engine (a workload like
// parboil.bfs whose cross-SM atomic ordering feeds control flow is not
// run-to-run stable on the concurrent engine) and each evaluation owns a
// private context. The winner is selected by (cycles, lowest candidate
// index), so the table is identical at any worker count.
func SchedTable(env Env, apps []string, candidates int, seed uint64) ([]SchedRow, error) {
	if apps == nil {
		apps = SchedApps()
	}
	if candidates <= 0 {
		candidates = 8
	}
	var rows []SchedRow
	for _, app := range apps {
		row, err := schedApp(env, app, candidates, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func schedApp(env Env, app string, candidates int, seed uint64) (SchedRow, error) {
	// The autotuner compares cycle counts across candidates, so the
	// measurement must be deterministic: force the sequential-SM engine
	// for the baseline and every candidate (env is a copy).
	env.Config.SequentialSMs = true
	spec, ok := workloads.Get(app)
	if !ok {
		return SchedRow{}, fmt.Errorf("experiments: unknown workload %q", app)
	}
	dataset := spec.DefaultDataset()

	// Unscheduled baseline: the reference for cycles and for bit-equality.
	baseProg, err := spec.CompileCached(env.Cache, ptxas.Options{})
	if err != nil {
		return SchedRow{}, err
	}
	baseCtx := cuda.NewContext(env.Config)
	baseRes, err := spec.Run(baseCtx, baseProg, dataset)
	if err != nil {
		return SchedRow{}, fmt.Errorf("experiments: %s baseline: %w", app, err)
	}
	if baseRes.VerifyErr != nil {
		return SchedRow{}, fmt.Errorf("experiments: %s baseline failed verification: %w",
			app, baseRes.VerifyErr)
	}
	row := SchedRow{App: app, BaseCycles: baseCtx.TotalKernelCycles, Candidates: candidates}

	// Candidate seeds: index 0 is the deterministic heuristic; the rest
	// jitter tie-breaking through the shared splitmix construction.
	seeds := make([]uint64, candidates)
	for i := 1; i < candidates; i++ {
		seeds[i] = sass.SplitMix(seed, uint64(i))
	}

	results := make([]schedCandidate, candidates)
	_, err = fanout.Run[struct{}](env.Workers, candidates, nil, func(_ struct{}, _, i int) error {
		cycles, ok, err := evalSchedule(env, spec, dataset, seeds[i], baseRes)
		results[i] = schedCandidate{cycles: cycles, ok: ok}
		return err
	})
	if err != nil {
		return SchedRow{}, err
	}

	best := -1
	for i, c := range results {
		if !c.ok {
			row.Rejected++
			continue
		}
		if i == 0 {
			row.HeurCycles = c.cycles
		}
		if best < 0 || c.cycles < results[best].cycles {
			best = i
		}
	}
	if best < 0 {
		return SchedRow{}, fmt.Errorf("experiments: %s: every schedule candidate was rejected", app)
	}
	row.BestCycles = results[best].cycles
	row.BestSeed = seeds[best]
	return row, nil
}

// evalSchedule compiles one candidate with the verifier forced on (the
// schedule check must certify the permutation), runs it, and gates on
// bit-equal output and stdout against the unscheduled baseline. A
// verifier rejection or output divergence is a vetoed candidate (ok
// false), not an experiment error: the harness's whole point is that
// unsound candidates are fenced out, not trusted.
func evalSchedule(env Env, spec *workloads.Spec, dataset string, schedSeed uint64,
	base *workloads.Result) (cycles uint64, ok bool, err error) {

	opts := ptxas.Options{Schedule: true, SchedSeed: schedSeed, Verify: analysis.VerifyOn}
	prog, err := spec.CompileCached(env.Cache, opts)
	if err != nil {
		var ve *analysis.VerifyError
		if errors.As(err, &ve) {
			return 0, false, nil
		}
		return 0, false, err
	}
	ctx := cuda.NewContext(env.Config)
	res, err := spec.Run(ctx, prog, dataset)
	if err != nil {
		return 0, false, err
	}
	if res.VerifyErr != nil {
		return 0, false, nil
	}
	if res.Stdout != base.Stdout || len(res.Output) != len(base.Output) {
		return 0, false, nil
	}
	for i := range res.Output {
		if res.Output[i] != base.Output[i] {
			return 0, false, nil
		}
	}
	return ctx.TotalKernelCycles, true, nil
}

// FormatSchedTable renders the autotuning results.
func FormatSchedTable(rows []SchedRow) string {
	var b strings.Builder
	b.WriteString("sched: simulator-guided instruction-schedule autotuning (simulated cycles)\n")
	b.WriteString(fmt.Sprintf("%-18s %12s %12s %12s %10s %7s %9s %8s\n",
		"app", "base", "heuristic", "best", "best seed", "cands", "rejected", "speedup"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-18s %12d %12d %12d %#10x %7d %9d %7.3fx\n",
			r.App, r.BaseCycles, r.HeurCycles, r.BestCycles, r.BestSeed,
			r.Candidates, r.Rejected, r.Speedup()))
	}
	return b.String()
}
