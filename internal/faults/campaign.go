// Package faults drives Case Study IV's error-injection campaigns (§8):
// profile the injection site space with one SASSI handler, stochastically
// select sites, inject single-bit flips with a second handler, and classify
// each run's outcome against a golden reference execution.
package faults

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// Outcome classifies one injection run, following Figure 10's categories.
type Outcome int

// Outcomes, ordered as in the paper's stacked bars.
const (
	Masked Outcome = iota
	Crash
	Hang
	FailureSymptom
	StdoutOnlyDiff
	OutputDiff
	numOutcomes
)

var outcomeNames = [...]string{
	"masked", "crash", "hang", "failure-symptom", "stdout-only-diff", "output-file-diff",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// NumOutcomes is the number of outcome categories.
const NumOutcomes = int(numOutcomes)

// Campaign configures a fault-injection study on one workload.
type Campaign struct {
	Spec    *workloads.Spec
	Dataset string
	// Injections is the number of injection runs (the paper uses 1000).
	Injections int
	// Seed drives site selection.
	Seed uint64
	// Config is the device model; the watchdog is recalibrated from the
	// profiling run automatically.
	Config sim.Config
	// Targets weights the state classes; zero value means the paper's mix
	// (GPRs dominate, predicates and CC for compare instructions).
	Targets []handlers.InjectTarget

	// Workers is the number of injection executions run concurrently, each
	// worker on one simulated device it resets between runs. Every run
	// derives its RNG from (Seed, run index), so every run's outcome is
	// identical at any worker count. Zero means GOMAXPROCS; 1 runs serially.
	Workers int

	// Cache, when non-nil, is a shared compile cache; campaigns compile
	// the workload exactly twice (uninstrumented golden + one instrumented
	// program shared by the profiling run and every injection run), and a
	// shared cache extends that sharing across campaigns. Nil uses a
	// campaign-private cache.
	Cache *sassi.CompileCache

	// Metrics, when non-nil, receives campaign progress: faults.runs,
	// faults.runs_failed, faults.workers, faults.sites_total, and one
	// faults.outcome.<name> counter per category.
	Metrics *obs.Registry
	// Trace, when non-nil, records the golden and profiling phases on the
	// host lane and one wall-clock lane per injection worker (PidCampaign),
	// with a span per run carrying its outcome.
	Trace *obs.Tracer
	// PCSamp, when non-nil, PC-samples the golden run (only: the profiling
	// and injection runs execute instrumented code whose PCs would not
	// line up with the uninstrumented profile).
	PCSamp *pcsamp.Sampler
}

// launchProfile records one launch's per-thread qualifying site counts and
// its CTA size, which places a grid-flat thread in its CTA.
type launchProfile struct {
	kernel     string
	counts     []uint64
	total      uint64
	ctaThreads int
}

// LaunchSizeError reports a profiling run that launched more threads than
// it had per-thread site counters for — sized by the largest launch of the
// golden run, then of the previous profiling attempt: the site space would
// silently lose the excess threads.
type LaunchSizeError struct {
	Kernel  string
	Launch  int
	Threads int
	Max     int
}

func (e *LaunchSizeError) Error() string {
	return fmt.Sprintf("faults: profiling launch %d (%s) has %d threads, the largest launch seen before it had %d",
		e.Launch, e.Kernel, e.Threads, e.Max)
}

// Result aggregates a campaign.
type Result struct {
	Workload   string
	Dataset    string
	Counts     [numOutcomes]int
	Total      int
	SitesTotal uint64
}

// Fraction returns an outcome's share of the campaign.
func (r *Result) Fraction(o Outcome) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(r.Total)
}

// Run executes the full campaign: golden run, profiling run, then
// Injections armed runs with outcome classification.
func (c *Campaign) Run() (*Result, error) {
	res, _, err := c.run(false)
	return res, err
}

// run is Run, also returning every run's outcome. An injection run executes
// the instrumented program only in the CTA its fault lands in (DESIGN.md
// "Per-CTA kernel selection"); widen makes it every CTA of every launch,
// which is what a campaign ran before kernels were selected per CTA and
// what the per-run golden test holds the narrow set against.
func (c *Campaign) run(widen bool) (*Result, []Outcome, error) {
	if c.Injections <= 0 {
		c.Injections = 100
	}
	if len(c.Targets) == 0 {
		c.Targets = []handlers.InjectTarget{
			handlers.TargetGPR, handlers.TargetGPR, handlers.TargetGPR,
			handlers.TargetGPR, handlers.TargetGPR, handlers.TargetGPR,
			handlers.TargetPred, handlers.TargetCC,
		}
	}
	res := &Result{Workload: c.Spec.Name, Dataset: c.Dataset}

	cache := c.Cache
	if cache == nil {
		cache = sassi.NewCompileCache()
		cache.Metrics = c.Metrics
		cache.Trace = c.Trace
	}

	// (0) Golden reference run, uninstrumented.
	goldenProg, err := c.Spec.CompileCached(cache, ptxas.Options{})
	if err != nil {
		return nil, nil, err
	}
	goldenCtx := cuda.NewContext(c.Config)
	goldenCtx.Device().PCSamp = c.PCSamp
	// The largest launch sizes the profiling run's per-thread counters.
	maxThreads := 0
	goldenCtx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
			if stats != nil && stats.Threads > maxThreads {
				maxThreads = stats.Threads
			}
		},
	})
	var golden *workloads.Result
	c.Trace.HostSpan(obs.TidHostMain, "golden:"+c.Spec.Name, func() {
		golden, err = c.Spec.Run(goldenCtx, goldenProg, c.Dataset)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("faults: golden run failed: %w", err)
	}
	if golden.VerifyErr != nil {
		return nil, nil, fmt.Errorf("faults: golden run does not verify: %w", golden.VerifyErr)
	}

	// The profiling handler and the injector share one instrumentation
	// descriptor (site selection is site-independent: "after register
	// writes"), so a single instrumented program serves the profiling run
	// and all N injection runs. Instrumentation happens inside the build
	// closure — cached programs are shared read-only.
	instProg, err := c.instrumentedProg(cache)
	if err != nil {
		return nil, nil, err
	}

	// (1) Profiling run: count qualifying dynamic instructions per thread
	// per launch. The golden run's largest launch is a prediction of this
	// run's; a program whose launch sizes depend on how its SMs interleave
	// (parboil.bfs sizes a launch by its frontier) can exceed it, and is
	// profiled again with the size it showed.
	var profiles []launchProfile
	var maxWarpInstrs uint64
	for attempt := 1; ; attempt++ {
		var largest *LaunchSizeError
		profiles, maxWarpInstrs, largest, err = c.profile(instProg, maxThreads)
		if err != nil {
			return nil, nil, fmt.Errorf("faults: profiling run failed: %w", err)
		}
		if largest == nil {
			break
		}
		if attempt == profileAttempts {
			return nil, nil, largest
		}
		maxThreads = largest.Threads
	}
	var totalSites uint64
	for _, lp := range profiles {
		totalSites += lp.total
	}
	res.SitesTotal = totalSites
	if totalSites == 0 {
		return nil, nil, fmt.Errorf("faults: workload %s has no injectable sites", c.Spec.Name)
	}

	// (2) Injection runs, fanned out over a worker pool. Each run seeds its
	// own RNG from (campaign seed, run index) and simulates on its worker's
	// device, reset between runs to what a new one is, so site selection
	// and outcome are a pure function of the run index: the per-run
	// outcomes — not just the histogram — are identical at any worker
	// count.
	injCfg := c.Config
	injCfg.WatchdogWarpInstrs = 20*maxWarpInstrs + 100_000
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > c.Injections {
		workers = c.Injections
	}
	c.Metrics.Gauge(obs.MFaultsWorkers).Set(uint64(workers))
	c.Metrics.Gauge(obs.MFaultsSitesTotal).Set(totalSites)
	if c.Trace != nil {
		c.Trace.NameProcess(obs.PidCampaign, "fault campaign (wall µs)")
		for w := 0; w < workers; w++ {
			c.Trace.NameThread(obs.PidCampaign, w, fmt.Sprintf("worker %d", w))
		}
	}
	runsCtr := c.Metrics.Counter(obs.MFaultsRuns)
	failedCtr := c.Metrics.Counter(obs.MFaultsRunsFailed)
	outcomes := make([]Outcome, c.Injections)
	errs := make([]error, c.Injections)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := cuda.NewContext(injCfg)
			for {
				run := int(next.Add(1)) - 1
				if run >= c.Injections {
					return
				}
				rng := newRNG(runSeed(c.Seed, run))
				site := c.selectSite(profiles, rng)
				only := twinFor(instProg, site.Invocation, int(site.ThreadID)/profiles[site.Invocation].ctaThreads, widen)
				ts := c.Trace.Now()
				outcomes[run], errs[run] = c.injectOnce(ctx, goldenProg, instProg, only, site, golden)
				runsCtr.Inc()
				if errs[run] != nil {
					failedCtr.Inc()
				}
				if c.Trace != nil {
					c.Trace.Span(obs.PidCampaign, w, fmt.Sprintf("run %d", run),
						ts, c.Trace.Now()-ts,
						map[string]any{"outcome": outcomes[run].String()})
				}
			}
		}(w)
	}
	wg.Wait()
	for run, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("faults: injection run %d: %w", run, err)
		}
	}
	for _, o := range outcomes {
		res.Counts[o]++
		res.Total++
	}
	if reg := c.Metrics; reg != nil {
		for o := 0; o < NumOutcomes; o++ {
			reg.Counter(obs.MFaultsOutcomePref + Outcome(o).String()).Add(uint64(res.Counts[o]))
		}
	}
	return res, outcomes, nil
}

// profileAttempts bounds how often run re-profiles a program whose launches
// outgrow the size the previous attempt showed.
const profileAttempts = 3

// profile is the profiling run: the instrumented program, whole grid, with
// one site counter per thread for launches of up to maxThreads threads. It
// returns every launch's counts and the largest warp instruction count of
// any launch (which calibrates the injection runs' watchdog), and reports
// the largest launch that had more threads than counters, if any.
func (c *Campaign) profile(inst *sass.Program, maxThreads int) ([]launchProfile, uint64, *LaunchSizeError, error) {
	ctx := cuda.NewContext(c.Config)
	prof := handlers.NewInjProfiler(ctx, maxThreads)
	rt := sassi.NewRuntime(inst)
	if err := rt.Register(prof.Handler()); err != nil {
		return nil, 0, nil, err
	}
	rt.Attach(ctx.Device())

	var profiles []launchProfile
	var maxWarpInstrs uint64
	var largest *LaunchSizeError
	zero := make([]byte, 8*maxThreads) // resets the counters between launches
	ctx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
			counts, rerr := prof.Counts()
			if rerr != nil || err != nil {
				return
			}
			if stats.Threads > maxThreads && (largest == nil || stats.Threads > largest.Threads) {
				largest = &LaunchSizeError{Kernel: kernel, Launch: idx, Threads: stats.Threads, Max: maxThreads}
			}
			lp := launchProfile{kernel: kernel, counts: counts, ctaThreads: stats.Threads / stats.CTAs}
			for _, v := range counts {
				lp.total += v
			}
			profiles = append(profiles, lp)
			if stats.MaxWarpInstrs > maxWarpInstrs {
				maxWarpInstrs = stats.MaxWarpInstrs
			}
			// Reset for the next launch.
			_ = ctx.MemcpyHtoD(prof.DevPtr(), zero)
		},
	})
	var err error
	c.Trace.HostSpan(obs.TidHostMain, "profile:"+c.Spec.Name, func() {
		_, err = c.Spec.Run(ctx, inst, c.Dataset)
	})
	return profiles, maxWarpInstrs, largest, err
}

// instrumentedProg builds (or fetches) the campaign's single instrumented
// program. The injection descriptor is site-independent ("after register
// writes", register info, sassi_errorinj_handler), so the profiling run and
// every injection run share it; per-run behavior comes entirely from the
// registered handler's state.
func (c *Campaign) instrumentedProg(cache *sassi.CompileCache) (*sass.Program, error) {
	instOpts := (&handlers.Injector{}).Options()
	instKey, ok := instOpts.CacheKey()
	build := func() (*sass.Program, error) {
		prog, err := c.Spec.Compile(ptxas.Options{})
		if err != nil {
			return nil, err
		}
		if err := sassi.Instrument(prog, instOpts); err != nil {
			return nil, err
		}
		return prog, nil
	}
	if !ok {
		// Unreachable today (injWhere carries no Select closure), but keep
		// the uncacheable path honest.
		return build()
	}
	return cache.Get(c.Spec.InstrumentedKey(ptxas.Options{}, instKey), build)
}

// runSeed derives the RNG seed for one injection run from the campaign seed
// and the run index (splitmix64 finalizer), decorrelating runs while keeping
// each a pure function of (Seed, run).
func runSeed(seed uint64, run int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(run+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// selectSite samples a (launch, thread, dynamic-instruction) tuple
// uniformly over the profiled site space, plus random seeds.
func (c *Campaign) selectSite(profiles []launchProfile, rng *prng) handlers.InjectionSite {
	var total uint64
	for _, lp := range profiles {
		total += lp.total
	}
	pick := rng.next() % total
	for li, lp := range profiles {
		if pick >= lp.total {
			pick -= lp.total
			continue
		}
		for t, cnt := range lp.counts {
			if pick >= cnt {
				pick -= cnt
				continue
			}
			return handlers.InjectionSite{
				Kernel:     lp.kernel,
				Invocation: li,
				ThreadID:   uint64(t),
				InstrIndex: pick,
				DstSeed:    uint32(rng.next()),
				BitSeed:    uint32(rng.next()),
				Target:     c.Targets[rng.next()%uint64(len(c.Targets))],
			}
		}
	}
	// Unreachable with a correct total.
	return handlers.InjectionSite{}
}

// twinFor returns the cuda.LaunchCallbacks.Twin of an injection run: CTA
// cta of launch number launch runs inst, the instrumented program, and
// every other CTA of every launch the program the run was given; widen
// makes it every CTA of every launch.
func twinFor(inst *sass.Program, launch, cta int, widen bool) func(string, int) *sim.Twin {
	return func(_ string, idx int) *sim.Twin {
		if !widen && idx != launch {
			return nil
		}
		return &sim.Twin{Prog: inst, CTAs: func(i int) bool { return widen || i == cta }}
	}
}

// injectOnce performs one armed run on ctx, a new or reset context, and
// classifies the outcome, leaving ctx reset for the worker's next run. The
// run is given prog, the uninstrumented program, and executes inst, the
// instrumented one, where only selects it; both are shared and read-only.
func (c *Campaign) injectOnce(ctx *cuda.Context, prog, inst *sass.Program, only func(string, int) *sim.Twin, site handlers.InjectionSite, golden *workloads.Result) (Outcome, error) {
	inj := handlers.NewInjector(site)
	// Lenient heap bounds: corrupted pointers land in mapped memory unless
	// they leave the heap entirely, as on hardware.
	ctx.Device().Global.SetStrictBounds(false)
	rt := sassi.NewRuntime(inst)
	if err := rt.Register(inj.Handler()); err != nil {
		return Masked, err
	}
	rt.Attach(ctx.Device())
	ctx.Subscribe(cuda.LaunchCallbacks{
		Twin: only,
		PreLaunch: func(kernel string, idx int) {
			if idx == site.Invocation {
				inj.Arm()
			}
		},
		PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
			if idx == site.Invocation {
				inj.Disarm()
			}
		},
	})

	result, err := c.Spec.Run(ctx, prog, c.Dataset)
	// A crashed or hung run leaves nothing behind for the next one — or
	// the campaign stops here.
	if rerr := ctx.Reset(); rerr != nil {
		return Masked, rerr
	}
	if err != nil {
		var te *sim.TwinError
		if errors.As(err, &te) {
			return Masked, err // the campaign's own launch set-up, not an outcome
		}
		var ke *sim.KernelError
		if errors.As(err, &ke) {
			switch ke.Kind {
			case sim.ErrMemFault:
				return Crash, nil
			case sim.ErrHang:
				return Hang, nil
			}
		}
		// Any other kernel error, or a host-side failure (bad sizes,
		// download errors): an explicit error message — a failure symptom.
		return FailureSymptom, nil
	}
	// Output comparison uses the workload's own comparator — Parboil and
	// Rodinia ship tolerance-based compare tools, so a low-order mantissa
	// flip that stays within tolerance counts as matching output. The
	// stdout comparison is exact, so such a flip that changes the printed
	// summary classifies as "stdout only different", the paper's category.
	if !c.Spec.OutputsMatch(result.Output, golden.Output) {
		return OutputDiff, nil
	}
	if result.Stdout != golden.Stdout {
		return StdoutOnlyDiff, nil
	}
	return Masked, nil
}

// prng is a local xorshift64* generator.
type prng struct{ s uint64 }

func newRNG(seed uint64) *prng {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &prng{s: seed}
}

func (r *prng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}
