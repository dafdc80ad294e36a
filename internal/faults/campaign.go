// Package faults drives Case Study IV's error-injection campaigns (§8):
// profile the injection site space with one SASSI handler, stochastically
// select sites, inject single-bit flips with a second handler, and classify
// each run's outcome against a golden reference execution.
package faults

import (
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
	// on its own simulated device. Every run derives its RNG from (Seed,
	// run index), so the outcome distribution is identical at any worker
	// count. Zero means GOMAXPROCS; 1 runs serially.
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

// launchProfile records one launch's per-thread qualifying site counts.
type launchProfile struct {
	kernel string
	counts []uint64
	total  uint64
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
		return nil, err
	}
	goldenCtx := cuda.NewContext(c.Config)
	goldenCtx.Device().PCSamp = c.PCSamp
	var golden *workloads.Result
	c.Trace.HostSpan(obs.TidHostMain, "golden:"+c.Spec.Name, func() {
		golden, err = c.Spec.Run(goldenCtx, goldenProg, c.Dataset)
	})
	if err != nil {
		return nil, fmt.Errorf("faults: golden run failed: %w", err)
	}
	if golden.VerifyErr != nil {
		return nil, fmt.Errorf("faults: golden run does not verify: %w", golden.VerifyErr)
	}

	// The profiling handler and the injector share one instrumentation
	// descriptor (site selection is site-independent: "after register
	// writes"), so a single instrumented program serves the profiling run
	// and all N injection runs. Instrumentation happens inside the build
	// closure — cached programs are shared read-only.
	instProg, err := c.instrumentedProg(cache)
	if err != nil {
		return nil, err
	}

	// (1) Profiling run: count qualifying dynamic instructions per thread
	// per launch.
	profCtx := cuda.NewContext(c.Config)
	maxThreads := maxLaunchThreads(goldenCtx)
	prof := handlers.NewInjProfiler(profCtx, maxThreads)
	rt := sassi.NewRuntime(instProg)
	if err := rt.Register(prof.Handler()); err != nil {
		return nil, err
	}
	rt.Attach(profCtx.Device())

	var profiles []launchProfile
	var maxWarpInstrs uint64
	zero := make([]byte, 8*maxThreads) // resets the counters between launches
	profCtx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
			counts, rerr := prof.Counts()
			if rerr != nil || err != nil {
				return
			}
			lp := launchProfile{kernel: kernel, counts: counts}
			for _, v := range counts {
				lp.total += v
			}
			profiles = append(profiles, lp)
			if stats != nil && stats.MaxWarpInstrs > maxWarpInstrs {
				maxWarpInstrs = stats.MaxWarpInstrs
			}
			// Reset for the next launch.
			_ = profCtx.MemcpyHtoD(profPtr(prof), zero)
		},
	})
	var profErr error
	c.Trace.HostSpan(obs.TidHostMain, "profile:"+c.Spec.Name, func() {
		_, profErr = c.Spec.Run(profCtx, instProg, c.Dataset)
	})
	if profErr != nil {
		return nil, fmt.Errorf("faults: profiling run failed: %w", profErr)
	}
	var totalSites uint64
	for _, lp := range profiles {
		totalSites += lp.total
	}
	res.SitesTotal = totalSites
	if totalSites == 0 {
		return nil, fmt.Errorf("faults: workload %s has no injectable sites", c.Spec.Name)
	}

	// (2) Injection runs, fanned out over a worker pool. Each run seeds its
	// own RNG from (campaign seed, run index) and simulates on a private
	// device, so site selection and outcome are a pure function of the run
	// index: the per-run outcomes — not just the histogram — are identical
	// at any worker count.
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
			for {
				run := int(next.Add(1)) - 1
				if run >= c.Injections {
					return
				}
				rng := newRNG(runSeed(c.Seed, run))
				site := c.selectSite(profiles, rng)
				ts := c.Trace.Now()
				outcomes[run], errs[run] = c.injectOnce(instProg, site, injCfg, golden)
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
			return nil, fmt.Errorf("faults: injection run %d: %w", run, err)
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
	return res, nil
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

// injectOnce performs one armed run on its own device and classifies the
// outcome. prog is the shared instrumented program (read-only).
func (c *Campaign) injectOnce(prog *sass.Program, site handlers.InjectionSite, cfg sim.Config, golden *workloads.Result) (Outcome, error) {
	inj := handlers.NewInjector(site)
	ctx := cuda.NewContext(cfg)
	// Lenient heap bounds: corrupted pointers land in mapped memory unless
	// they leave the heap entirely, as on hardware.
	ctx.Device().Global.SetStrictBounds(false)
	rt := sassi.NewRuntime(prog)
	if err := rt.Register(inj.Handler()); err != nil {
		return Masked, err
	}
	rt.Attach(ctx.Device())
	ctx.Subscribe(cuda.LaunchCallbacks{
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
	if err != nil {
		var ke *sim.KernelError
		if asKernelError(err, &ke) {
			switch ke.Kind {
			case sim.ErrMemFault:
				return Crash, nil
			case sim.ErrHang:
				return Hang, nil
			default:
				return FailureSymptom, nil
			}
		}
		// Host-side failure (bad sizes, download errors): an explicit
		// error message — a failure symptom.
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

func asKernelError(err error, out **sim.KernelError) bool {
	for err != nil {
		if ke, ok := err.(*sim.KernelError); ok {
			*out = ke
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// maxLaunchThreads returns the largest grid size the golden run launched
// (sizing the per-thread profile array).
func maxLaunchThreads(ctx *cuda.Context) int {
	// Context aggregates don't keep per-launch geometry; use a generous
	// upper bound derived from total warp instrs if unavailable. The
	// profile array is cheap, so default to 1<<16 threads.
	return 1 << 16
}

// profPtr exposes the profiler's device array for host-side reset.
func profPtr(p *handlers.InjProfiler) cuda.DevPtr { return p.DevPtr() }

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
