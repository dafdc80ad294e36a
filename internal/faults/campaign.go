// Package faults drives Case Study IV's error-injection campaigns (§8):
// count the injection site space during a golden reference execution,
// stochastically select sites, inject single-bit flips with a SASSI
// handler, and classify each run's outcome against the golden execution.
package faults

import (
	"errors"
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/fanout"
	"sassi/internal/handlers"
	"sassi/internal/mem"
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
	// Config is the device model; the injection runs' watchdog is
	// recalibrated from the golden run automatically.
	Config sim.Config

	// Workers is the number of injection executions run concurrently, each
	// worker on one simulated device it resets between runs. Every run
	// derives its RNG from (Seed, run index), so every run's outcome is
	// identical at any worker count. Zero means GOMAXPROCS; 1 runs serially.
	Workers int

	// Cache, when non-nil, is a shared compile cache; campaigns compile
	// the workload once, for the golden program, and instrument a clone of
	// it (whose injected code also defines the site space, shared by every
	// injection run), and a shared cache extends that sharing across
	// campaigns. Nil uses a campaign-private cache.
	Cache *sassi.CompileCache

	// Metrics, when non-nil, receives campaign progress: faults.runs,
	// faults.runs_failed, faults.runs_isolated (runs that simulated the
	// target CTA alone), faults.runs_fenced (runs whose isolated attempt
	// the fence stopped, then run again over the whole grid),
	// faults.workers, faults.sites_total, and one faults.outcome.<name>
	// counter per category.
	Metrics *obs.Registry
	// Trace, when non-nil, records the golden run on the host lane and one
	// wall-clock lane per injection worker (PidCampaign), with a span per
	// run carrying its outcome.
	Trace *obs.Tracer
	// PCSamp, when non-nil, PC-samples the golden run (only: the injection
	// runs execute instrumented code whose PCs would not line up with the
	// uninstrumented profile).
	PCSamp *pcsamp.Sampler
}

// launchProfile records one launch's per-thread qualifying site counts and
// its CTA size, which places a grid-flat thread in its CTA and warp.
type launchProfile struct {
	kernel     string
	counts     []uint64
	total      uint64
	ctaThreads int
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

// Run executes the full campaign: the golden run, which also counts the
// site space, then Injections armed runs with outcome classification.
func (c *Campaign) Run() (*Result, error) {
	res, _, err := c.run(false)
	return res, err
}

// run is Run, also returning every run's outcome. An injection run executes
// the instrumented program only in the warp its fault lands in, and there
// only in its site's after-block, and simulates that warp's CTA alone in
// the target launch when the golden run has shown the CTA to be isolated
// (DESIGN.md "Per-warp kernel selection"); widen makes it every warp of
// every CTA of every launch, the whole instrumented program, which is what
// a campaign ran before kernels were selected per CTA and what the
// per-run golden test holds the narrow set against.
func (c *Campaign) run(widen bool) (*Result, []Outcome, error) {
	c.setDefaults()
	if err := checkDataset(c.Spec, c.Dataset); err != nil {
		return nil, nil, err
	}
	res := &Result{Workload: c.Spec.Name, Dataset: c.Dataset}

	cache := c.Cache
	if cache == nil {
		cache = sassi.NewCompileCache()
		cache.Metrics = c.Metrics
		cache.Trace = c.Trace
	}

	// (1) Golden reference run, uninstrumented, counting the site space the
	// injection runs sample from.
	g, err := c.golden(cache)
	if err != nil {
		return nil, nil, err
	}
	res.SitesTotal = g.sites
	if g.sites == 0 {
		return nil, nil, fmt.Errorf("faults: workload %s has no injectable sites", c.Spec.Name)
	}

	// (2) Injection runs, fanned out over a worker pool. Each run seeds its
	// own RNG from (campaign seed, run index) and simulates on its worker's
	// device, reset between runs to what a new one is, so site selection
	// and outcome are a pure function of the run index: the per-run
	// outcomes — not just the histogram — are identical at any worker
	// count.
	injCfg := c.injectionConfig(g)
	workers := fanout.Size(c.Workers, c.Injections)
	c.Metrics.Gauge(obs.MFaultsWorkers).Set(uint64(workers))
	c.Metrics.Gauge(obs.MFaultsSitesTotal).Set(g.sites)
	if c.Trace != nil {
		c.Trace.NameProcess(obs.PidCampaign, "fault campaign (wall µs)")
		for w := 0; w < workers; w++ {
			c.Trace.NameThread(obs.PidCampaign, w, fmt.Sprintf("worker %d", w))
		}
	}
	runsCtr := c.Metrics.Counter(obs.MFaultsRuns)
	failedCtr := c.Metrics.Counter(obs.MFaultsRunsFailed)
	isolatedCtr := c.Metrics.Counter(obs.MFaultsRunsIsolated)
	fencedCtr := c.Metrics.Counter(obs.MFaultsRunsFenced)
	outcomes := make([]Outcome, c.Injections)
	newCtx := func() *cuda.Context { return cuda.NewContext(injCfg) }
	failed, err := fanout.Run(workers, c.Injections, newCtx, func(ctx *cuda.Context, w, run int) error {
		ts := c.Trace.Now()
		o, path, err := c.injectRun(ctx, g, run, widen)
		outcomes[run] = o
		runsCtr.Inc()
		if err != nil {
			failedCtr.Inc()
		}
		switch path {
		case pathIsolated:
			isolatedCtr.Inc()
		case pathFenced:
			fencedCtr.Inc()
		}
		if c.Trace != nil {
			c.Trace.Span(obs.PidCampaign, w, fmt.Sprintf("run %d", run),
				ts, c.Trace.Now()-ts, map[string]any{"outcome": o.String(), "path": path.String()})
		}
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("faults: injection run %d: %w", failed, err)
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

// checkDataset refuses a dataset spec does not have. Spec.Run does not:
// a workload given a key it does not know runs its default data, which a
// campaign would then report under the unknown name.
func checkDataset(spec *workloads.Spec, dataset string) error {
	if !spec.HasDataset(dataset) {
		return fmt.Errorf("faults: workload %s has no dataset %q (have %v)", spec.Name, dataset, spec.Datasets)
	}
	return nil
}

// setDefaults fills in what a zero field of c means: 100 injections.
func (c *Campaign) setDefaults() {
	if c.Injections <= 0 {
		c.Injections = 100
	}
}

// injectTargets is the paper's mix of the state classes a run flips a bit
// in, each run drawing one entry: GPRs dominate, predicates and CC for
// compare instructions.
var injectTargets = [...]handlers.InjectTarget{
	handlers.TargetGPR, handlers.TargetGPR, handlers.TargetGPR,
	handlers.TargetGPR, handlers.TargetGPR, handlers.TargetGPR,
	handlers.TargetPred, handlers.TargetCC,
}

// injectionConfig is the device model of c's injection runs: c.Config with
// the watchdog recalibrated from the golden run g.
func (c *Campaign) injectionConfig(g *goldenRun) sim.Config {
	cfg := c.Config
	cfg.WatchdogWarpInstrs = 20*g.maxWarpInstrs + 100_000
	return cfg
}

// goldenRun is what a campaign's golden run yields: both programs, the
// reference result, every launch's site space and cut, and the largest
// warp instruction count of the instrumented program (the watchdog's base).
type goldenRun struct {
	prog, inst    *sass.Program
	result        *workloads.Result
	profiles      []launchProfile
	sites         uint64 // the profiles' total
	cuts          []*launchCut
	maxWarpInstrs uint64
}

// runPath is how an injection run executed its target launch.
type runPath int

const (
	// pathWhole ran every CTA: the target CTA was not isolated, or the
	// campaign was widened.
	pathWhole runPath = iota
	// pathIsolated ran the target CTA alone and spliced in the others.
	pathIsolated
	// pathFenced ran the target CTA alone until the fence stopped it,
	// then the whole run again on pathWhole.
	pathFenced
)

func (p runPath) String() string { return [...]string{"whole", "isolated", "fenced"}[p] }

// injectRun performs injection run number run of the campaign on ctx, a new
// or reset context it leaves reset: it draws the run's site from (Seed,
// run) and classifies the outcome. Unless widen, the target warp runs
// instrumented code only in the site's after-block (sim.TwinSite), and the
// target CTA runs alone in the target launch when g shows it isolated.
func (c *Campaign) injectRun(ctx *cuda.Context, g *goldenRun, run int, widen bool) (Outcome, runPath, error) {
	site := c.selectSite(g.profiles, g.sites, newRNG(sass.SplitMix(c.Seed, uint64(run))))
	ctaThreads := g.profiles[site.Invocation].ctaThreads
	tid := int(site.ThreadID)
	cta, warp := tid/ctaThreads, tid%ctaThreads/sim.WarpSize
	cut, path := g.cuts[site.Invocation], pathWhole
	var at *sim.TwinSite
	if !widen {
		at = &sim.TwinSite{Thread: site.ThreadID, Instance: site.InstrIndex}
		if cut.alone[cta] {
			path = pathIsolated
		}
	}
	for {
		only := twinFor(g.inst, site.Invocation, cta, warp, widen)
		var splice func(*mem.Global) error
		if path == pathIsolated {
			only = cut.twinFor(g.inst, site.Invocation, cta, warp)
			splice = func(glob *mem.Global) error { return cut.splice(glob, cta) }
		}
		o, err := c.injectOnce(ctx, g, site, at, only, splice)
		var fe *sim.FenceError
		var sfe *sim.SkippedFrameError
		switch {
		case errors.As(err, &fe) && path == pathIsolated:
			// The run stopped short of what the whole grid would do: run
			// it again without the cut.
			path = pathFenced
		case errors.As(err, &sfe) && at != nil:
			// The original code could not stand in for the skipped
			// after-blocks (a read of their frames, or a site block that
			// moved the stack): run it again with the target warp on
			// instrumented code throughout.
			at = nil
		default:
			return o, path, err
		}
	}
}

// golden builds both programs and runs the uninstrumented one over the
// whole grid with a site probe: per thread per launch, it counts the issues
// of instructions the instrumented program calls the injection handler
// after. Instrumentation is transparent (the difftest tool axis and
// outcomes.golden certify it), so this is the instrumented run's path, and
// the counts are what a profiling handler there would count. Per launch it
// also keeps the cut that lets an injection run simulate one CTA alone.
func (c *Campaign) golden(cache *sassi.CompileCache) (*goldenRun, error) {
	// The golden run's site probe reads the site space off the injected
	// code ("after register writes", register info).
	opts := (&handlers.Injector{}).Options()
	opts.Metrics, opts.Trace = c.Metrics, c.Trace
	inst, err := c.Spec.CompileInstrumented(cache, ptxas.Options{}, opts)
	if err != nil {
		return nil, err
	}
	prog, err := c.Spec.CompileCached(cache, ptxas.Options{})
	if err != nil {
		return nil, err
	}
	probe, err := newSiteProbe(prog, inst)
	if err != nil {
		return nil, err
	}
	g := &goldenRun{prog: prog, inst: inst}
	smDep := make(map[string]bool, len(prog.Kernels))
	for _, k := range prog.Kernels {
		ik, _ := inst.Kernel(k.Name) // newSiteProbe checked it is there
		smDep[k.Name] = smDependent(k) || smDependent(ik)
	}
	var cutErr error
	ctx := cuda.NewContext(c.Config)
	ctx.Device().PCSamp = c.PCSamp
	ctx.Device().Probe = probe
	ctx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
			if err != nil {
				return
			}
			lp := launchProfile{kernel: kernel, counts: probe.counts, ctaThreads: stats.Threads / stats.CTAs}
			for _, v := range lp.counts {
				lp.total += v
			}
			g.profiles = append(g.profiles, lp)
			g.maxWarpInstrs = max(g.maxWarpInstrs, probe.maxWarpInstrs)
			cut := newLaunchCut(probe.footprint, smDep[kernel])
			if err := cut.readImage(ctx.Device().Global); err != nil && cutErr == nil {
				cutErr = err
			}
			g.cuts = append(g.cuts, cut)
		},
	})
	c.Trace.HostSpan(obs.TidHostMain, "golden:"+c.Spec.Name, func() {
		g.result, err = c.Spec.Run(ctx, prog, c.Dataset)
	})
	if err == nil {
		err = cutErr
	}
	if err != nil {
		return nil, fmt.Errorf("faults: golden run failed: %w", err)
	}
	if g.result.VerifyErr != nil {
		return nil, fmt.Errorf("faults: golden run does not verify: %w", g.result.VerifyErr)
	}
	// Every launch's counts cover the largest launch's threads: the layout
	// of one counter buffer sized for it, which profile.golden hashes.
	most := 0
	for _, lp := range g.profiles {
		most = max(most, len(lp.counts))
		g.sites += lp.total
	}
	for i, lp := range g.profiles {
		g.profiles[i].counts = append(lp.counts, make([]uint64, most-len(lp.counts))...)
	}
	return g, nil
}

// siteProbe is a campaign's sim.SiteProbe: per golden kernel, the length
// of the injected run that follows each of its instructions in the
// instrumented program, and what the last launch counted and touched.
type siteProbe struct {
	weights       map[string][]uint32
	counts        []uint64
	maxWarpInstrs uint64
	footprint     *sim.Footprint
}

// newSiteProbe derives the weights of every kernel of prog from its
// instrumented copy in inst, whose original instructions must be prog's.
func newSiteProbe(prog, inst *sass.Program) (*siteProbe, error) {
	p := &siteProbe{weights: make(map[string][]uint32, len(prog.Kernels))}
	for _, k := range prog.Kernels {
		ik, ok := inst.Kernel(k.Name)
		if !ok {
			return nil, fmt.Errorf("faults: kernel %s is not in the instrumented program", k.Name)
		}
		w := make([]uint32, len(k.Instrs))
		j := -1 // the original instruction the injected run follows
		for i := range ik.Instrs {
			in := &ik.Instrs[i]
			if in.Injected && j >= 0 {
				w[j]++
				continue
			}
			if j++; in.Injected || j == len(k.Instrs) || !sameOriginal(in, &k.Instrs[j]) {
				return nil, fmt.Errorf("faults: kernel %s: instrumented instruction %d (%s) is not original instruction %d",
					k.Name, i, in, j)
			}
		}
		if j+1 != len(k.Instrs) {
			return nil, fmt.Errorf("faults: kernel %s: instrumented copy has %d of its %d instructions", k.Name, j+1, len(k.Instrs))
		}
		p.weights[k.Name] = w
	}
	return p, nil
}

// sameOriginal reports whether a, an instruction of an instrumented kernel,
// is b carried over: the injected code renumbers branch targets only.
func sameOriginal(a, b *sass.Instruction) bool {
	return a.Op == b.Op && a.Guard == b.Guard && a.Mods == b.Mods &&
		len(a.Dsts) == len(b.Dsts) && len(a.Srcs) == len(b.Srcs)
}

func (p *siteProbe) SiteWeights(k *sass.Kernel) []uint32 { return p.weights[k.Name] }

func (p *siteProbe) LaunchSites(counts []uint64, maxWarpInstrs uint64) {
	p.counts, p.maxWarpInstrs = counts, maxWarpInstrs
}

func (p *siteProbe) LaunchFootprint(f *sim.Footprint) { p.footprint = f }

// selectSite samples a (launch, thread, dynamic-instruction) tuple
// uniformly over the profiled site space of total sites, plus random seeds.
func (c *Campaign) selectSite(profiles []launchProfile, total uint64, rng *prng) handlers.InjectionSite {
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
				Invocation: li,
				ThreadID:   uint64(t),
				InstrIndex: pick,
				DstSeed:    uint32(rng.next()),
				BitSeed:    uint32(rng.next()),
				Target:     injectTargets[rng.next()%uint64(len(injectTargets))],
			}
		}
	}
	// Unreachable with a correct total.
	return handlers.InjectionSite{}
}

// twinFor returns the cuda.LaunchCallbacks.Twin of an injection run: warp
// warp of CTA cta of launch number launch runs inst, the instrumented
// program, and every other warp of every launch the program the run was
// given; widen makes it every warp of every launch.
func twinFor(inst *sass.Program, launch, cta, warp int, widen bool) func(string, int) *sim.Twin {
	return func(_ string, idx int) *sim.Twin {
		if !widen && idx != launch {
			return nil
		}
		return &sim.Twin{Prog: inst, Warps: func(c, w int) bool { return widen || c == cta && w == warp }}
	}
}

// atSite narrows the twins only gives to the after-block of site at.
func atSite(only func(string, int) *sim.Twin, at *sim.TwinSite) func(string, int) *sim.Twin {
	return func(kernel string, idx int) *sim.Twin {
		t := only(kernel, idx)
		if t != nil {
			t.Site = at
		}
		return t
	}
}

// injectOnce performs one armed run on ctx, a new or reset context, and
// classifies the outcome, leaving ctx reset for the worker's next run. The
// run is given the golden run's uninstrumented program and executes its
// instrumented one where only selects it; both are shared and read-only.
// A non-nil at narrows the target launch's twin to the site's after-block,
// and the injector's count starts at the site. A non-nil splice runs on
// the device memory after a target launch that succeeded (one that ran the
// target CTA alone). A *sim.FenceError or *sim.SkippedFrameError return
// means the fence stopped that launch, and the run has no outcome.
func (c *Campaign) injectOnce(ctx *cuda.Context, g *goldenRun, site handlers.InjectionSite, at *sim.TwinSite, only func(string, int) *sim.Twin, splice func(*mem.Global) error) (Outcome, error) {
	inj := handlers.NewInjector(site)
	if at != nil {
		inj.Skip(site.InstrIndex)
		only = atSite(only, at)
	}
	var spliceErr error
	// Lenient heap bounds: corrupted pointers land in mapped memory unless
	// they leave the heap entirely, as on hardware.
	ctx.Device().Global.SetStrictBounds(false)
	rt := sassi.NewRuntime(g.inst)
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
			if idx != site.Invocation {
				return
			}
			inj.Disarm()
			if splice != nil && err == nil {
				spliceErr = splice(ctx.Device().Global)
			}
		},
	})

	result, err := c.Spec.Run(ctx, g.prog, c.Dataset)
	// A crashed or hung run leaves nothing behind for the next one — or
	// the campaign stops here.
	if rerr := ctx.Reset(); rerr != nil {
		return Masked, rerr
	}
	if spliceErr != nil {
		return Masked, spliceErr
	}
	if err != nil {
		var te *sim.TwinError
		var fe *sim.FenceError
		var sfe *sim.SkippedFrameError
		if errors.As(err, &te) || errors.As(err, &fe) || errors.As(err, &sfe) {
			return Masked, err // the campaign's own launch set-up or fence, not an outcome
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
	if !c.Spec.OutputsMatch(result.Output, g.result.Output) {
		return OutputDiff, nil
	}
	if result.Stdout != g.result.Stdout {
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
