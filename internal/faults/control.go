package faults

// Control-state fault campaigns close the CFI loop: corrupt one warp's
// control state (return address, divergence frame, forged call frame) at a
// profiled dynamic site and ask whether the CFI checker's shadow-stack
// audit catches it, the machine crashes or hangs first, the corruption
// silently alters output, or it is masked entirely.

import (
	"errors"
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/fanout"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// CtrlOutcome classifies one control-state injection run.
type CtrlOutcome int

// Control-campaign outcomes, in detection-priority order: a violation
// report wins over any downstream symptom.
const (
	// CtrlDetected: the CFI checker reported at least one violation.
	CtrlDetected CtrlOutcome = iota
	// CtrlCrash: undetected, and the run died on a fault or host error.
	CtrlCrash
	// CtrlHang: undetected, and the watchdog fired.
	CtrlHang
	// CtrlSilent: undetected, run completed, output or stdout differs from
	// golden — the dangerous quadrant.
	CtrlSilent
	// CtrlMasked: no observable effect (including runs whose chosen warp
	// never reached a qualifying site, which stay uncorrupted).
	CtrlMasked
	numCtrlOutcomes
)

var ctrlOutcomeNames = [...]string{"detected", "crashed", "hung", "silent", "masked"}

func (o CtrlOutcome) String() string {
	if int(o) < len(ctrlOutcomeNames) {
		return ctrlOutcomeNames[o]
	}
	return fmt.Sprintf("ctrl-outcome(%d)", int(o))
}

// NumCtrlOutcomes is the number of control-campaign outcome categories.
const NumCtrlOutcomes = int(numCtrlOutcomes)

// ControlCampaign configures a control-state corruption study on one
// workload: a golden run, one shared instrumented program, an instrumented
// profiling run enumerating the per-class qualifying site spaces (which
// doubles as the zero-false-positive check), then Injections armed runs
// with outcome classification. Unlike Campaign, whose golden run counts
// the site space with a sim.SiteProbe, the control sites are dispatches of
// the CFI checker's handler, so counting them takes the instrumented run.
type ControlCampaign struct {
	Spec    *workloads.Spec
	Dataset string
	// Injections is the number of injection runs.
	Injections int
	// Seed drives class and site selection.
	Seed uint64
	// Config is the device model; the watchdog is recalibrated from the
	// profiling run automatically (corrupted control state loves to spin).
	Config sim.Config
	// Workers is the number of concurrent injection executions. Every run
	// derives its RNG from (Seed, run index), so outcomes are identical at
	// any worker count. Zero means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, shares the compiled instrumented program across
	// campaigns.
	Cache *sassi.CompileCache
}

// ControlResult aggregates a control campaign per corruption class.
type ControlResult struct {
	// Counts[class][outcome] over the injection runs.
	Counts [handlers.NumCtrlClasses][numCtrlOutcomes]int
	// ClassTotals[class] is the number of runs drawn for the class.
	ClassTotals [handlers.NumCtrlClasses]int
	// Sites[class] is the qualifying-dispatch count from the profiling run.
	Sites [handlers.NumCtrlClasses]uint64
	// FalsePositives counts CFI violations reported on the uncorrupted
	// profiling run — the contract is that this is zero.
	FalsePositives int
}

// Fraction returns an outcome's share of one class's runs.
func (r *ControlResult) Fraction(class handlers.CtrlClass, o CtrlOutcome) float64 {
	if r.ClassTotals[class] == 0 {
		return 0
	}
	return float64(r.Counts[class][o]) / float64(r.ClassTotals[class])
}

// DetectionRate returns the detected share of one class's runs.
func (r *ControlResult) DetectionRate(class handlers.CtrlClass) float64 {
	return r.Fraction(class, CtrlDetected)
}

// Run executes the full control campaign.
func (c *ControlCampaign) Run() (*ControlResult, error) {
	res, _, err := c.run(false)
	return res, err
}

// run is Run, also returning every run's outcome; widen is Campaign.run's.
func (c *ControlCampaign) run(widen bool) (*ControlResult, []CtrlOutcome, error) {
	if c.Injections <= 0 {
		c.Injections = 100
	}
	if err := checkDataset(c.Spec, c.Dataset); err != nil {
		return nil, nil, err
	}
	res := &ControlResult{}

	cache := c.Cache
	if cache == nil {
		cache = sassi.NewCompileCache()
	}

	// (0) Golden reference run, uninstrumented.
	goldenProg, err := c.Spec.CompileCached(cache, ptxas.Options{})
	if err != nil {
		return nil, nil, err
	}
	golden, err := c.Spec.Run(cuda.NewContext(c.Config), goldenProg, c.Dataset)
	if err != nil {
		return nil, nil, fmt.Errorf("faults: golden run failed: %w", err)
	}
	if golden.VerifyErr != nil {
		return nil, nil, fmt.Errorf("faults: golden run does not verify: %w", golden.VerifyErr)
	}

	// One instrumented program serves the profiling run and every injection
	// run; per-run behavior comes entirely from the registered handler.
	instProg, err := c.Spec.CompileInstrumented(cache, ptxas.Options{}, handlers.NewCFIChecker().Options())
	if err != nil {
		return nil, nil, err
	}

	// (1) Profiling run: enumerate each class's qualifying dispatch space
	// per warp per launch, with the checker composed in as the
	// zero-false-positive gate on the uncorrupted workload.
	profilers := make([]*handlers.CtrlProfiler, handlers.NumCtrlClasses)
	for cl := range profilers {
		profilers[cl] = handlers.NewCtrlProfiler(handlers.CtrlClass(cl))
	}
	chk := handlers.NewCFIChecker()
	if err := chk.Prepare(instProg); err != nil {
		return nil, nil, err
	}
	profCtx := cuda.NewContext(c.Config)
	rt := sassi.NewRuntime(instProg)
	rt.MustRegister(&sassi.Handler{
		Name: handlers.CFIHandlerSymbol,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			for _, p := range profilers {
				p.Profile(w, args)
			}
			chk.Audit(w, args)
		},
	})
	rt.Attach(profCtx.Device())
	kernelOf := map[int]string{}
	var maxWarpInstrs uint64
	profCtx.Subscribe(cuda.LaunchCallbacks{
		PreLaunch: func(kernel string, idx int) {
			kernelOf[idx] = kernel
			for _, p := range profilers {
				p.SetInvocation(idx)
			}
		},
		PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
			if stats != nil && stats.MaxWarpInstrs > maxWarpInstrs {
				maxWarpInstrs = stats.MaxWarpInstrs
			}
		},
	})
	profRes, err := c.Spec.Run(profCtx, instProg, c.Dataset)
	if err != nil {
		return nil, nil, fmt.Errorf("faults: profiling run failed: %w", err)
	}
	if profRes.VerifyErr != nil {
		return nil, nil, fmt.Errorf("faults: profiling run does not verify: %w", profRes.VerifyErr)
	}
	res.FalsePositives = len(chk.Violations()) + chk.Dropped
	for cl := range profilers {
		res.Sites[cl] = profilers[cl].Total()
	}

	// Candidate classes: those the workload offers at least one qualifying
	// site for.
	var usable []handlers.CtrlClass
	for cl := handlers.CtrlClass(0); cl < handlers.NumCtrlClasses; cl++ {
		if res.Sites[cl] > 0 {
			usable = append(usable, cl)
		}
	}
	if len(usable) == 0 {
		return nil, nil, fmt.Errorf("faults: workload %s has no qualifying control-state sites", c.Spec.Name)
	}

	// (2) Injection runs over a worker pool, each worker on one device it
	// resets between runs; each run is a pure function of (Seed, run index).
	injCfg := c.Config
	injCfg.WatchdogWarpInstrs = 20*maxWarpInstrs + 100_000
	outcomes := make([]CtrlOutcome, c.Injections)
	classOf := make([]handlers.CtrlClass, c.Injections)
	newCtx := func() *cuda.Context { return cuda.NewContext(injCfg) }
	failed, err := fanout.Run(c.Workers, c.Injections, newCtx, func(ctx *cuda.Context, _, run int) error {
		rng := newRNG(sass.SplitMix(c.Seed, uint64(run)))
		class := usable[rng.next()%uint64(len(usable))]
		p := profilers[class]
		key, nth, _ := p.Pick(rng.next() % p.Total())
		kernelLen := 0
		if k, ok := instProg.Kernel(kernelOf[key.Invocation]); ok {
			kernelLen = len(k.Instrs)
		}
		inj := handlers.NewCtrlInjector(class, key, nth, rng.next(), rng.next(), kernelLen)
		only := twinFor(instProg, key.Invocation, key.CTA, key.Warp, widen)
		classOf[run] = class
		var err error
		outcomes[run], err = c.injectOnce(ctx, goldenProg, instProg, only, inj, golden)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("faults: injection run %d: %w", failed, err)
	}
	for run, o := range outcomes {
		res.Counts[classOf[run]][o]++
		res.ClassTotals[classOf[run]]++
	}
	return res, outcomes, nil
}

// injectOnce performs one armed run on ctx, a new or reset context, leaving
// it reset: the injector corrupts the chosen warp's control state ahead of
// the checker's audit in the same dispatch, and the outcome is classified
// with detection taking priority over downstream symptoms. prog, inst and
// only are Campaign.injectOnce's: the checker audits the warps that run
// inst, which include the corrupted one.
func (c *ControlCampaign) injectOnce(ctx *cuda.Context, prog, inst *sass.Program, only func(string, int) *sim.Twin, inj *handlers.CtrlInjector, golden *workloads.Result) (CtrlOutcome, error) {
	chk := handlers.NewCFIChecker()
	if err := chk.Prepare(inst); err != nil {
		return CtrlMasked, err
	}
	// Lenient heap bounds, as in the register campaigns: corrupted control
	// flow may compute wild addresses that still land in mapped memory.
	ctx.Device().Global.SetStrictBounds(false)
	rt := sassi.NewRuntime(inst)
	rt.MustRegister(&sassi.Handler{
		Name: handlers.CFIHandlerSymbol,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			inj.Inject(w, args)
			chk.Audit(w, args)
		},
	})
	rt.Attach(ctx.Device())
	ctx.Subscribe(cuda.LaunchCallbacks{
		Twin:      only,
		PreLaunch: func(kernel string, idx int) { inj.SetInvocation(idx) },
	})

	result, err := c.Spec.Run(ctx, prog, c.Dataset)
	if rerr := ctx.Reset(); rerr != nil {
		return CtrlMasked, rerr
	}
	var te *sim.TwinError
	if errors.As(err, &te) {
		return CtrlMasked, err // the campaign's own launch set-up, not an outcome
	}
	if len(chk.Violations()) > 0 {
		return CtrlDetected, nil
	}
	if err != nil {
		var ke *sim.KernelError
		if errors.As(err, &ke) && ke.Kind == sim.ErrHang {
			return CtrlHang, nil
		}
		return CtrlCrash, nil
	}
	if fired, _ := inj.Injected(); !fired {
		return CtrlMasked, nil
	}
	if !c.Spec.OutputsMatch(result.Output, golden.Output) || result.Stdout != golden.Stdout {
		return CtrlSilent, nil
	}
	return CtrlMasked, nil
}
