// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 and Figure 5 (Case Study I, branch divergence),
// Figures 7 and 8 (Case Study II, memory address divergence), Table 2
// (Case Study III, value profiling), Figure 10 (Case Study IV, error
// injection), and Table 3 (instrumentation overheads).
//
// Numbers will not match the paper exactly — the workloads run on synthetic
// datasets and the hardware is a simulator — but each experiment's *shape*
// (who diverges, who wins, roughly by how much) is the reproduction target;
// EXPERIMENTS.md records paper-vs-measured side by side.
package experiments

import (
	"fmt"
	"time"

	"sassi/internal/cuda"
	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// Env configures an experiment run.
type Env struct {
	// Config is the simulated GPU (default: the K10-like model the paper's
	// case studies I-III used).
	Config sim.Config
	// Workers bounds campaign-level concurrency (Figure 10 fault
	// injections). Zero means GOMAXPROCS; results are identical at any
	// value.
	Workers int
	// Cache shares compiled programs across experiments; Default() installs
	// one. Nil compiles fresh each time.
	Cache *sassi.CompileCache
	// Metrics and Trace, when non-nil, thread the observability layer
	// through every run the experiment performs: device counters, handler
	// dispatch counts, instrumentation accounting, and timeline spans.
	Metrics *obs.Registry
	Trace   *obs.Tracer
	// PCSamp, when non-nil, PC-samples every launch the experiments
	// perform (instrumented and baseline alike).
	PCSamp *pcsamp.Sampler
}

// Default returns the standard experiment environment.
func Default() Env {
	return Env{Config: sim.KeplerK10(), Cache: sassi.NewCompileCache()}
}

// instrumentedRun compiles a workload, applies an instrumentation spec,
// registers the handler, and runs the workload to completion, requiring the
// result to still verify. It returns the context for stats inspection.
func instrumentedRun(env Env, workload, dataset string,
	setup func(ctx *cuda.Context) (*sassi.Handler, sassi.Options)) (*cuda.Context, error) {

	spec, ok := workloads.Get(workload)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", workload)
	}
	ctx := cuda.NewContext(env.Config)
	ctx.Device().Metrics = env.Metrics
	ctx.Device().Trace = env.Trace
	ctx.Device().PCSamp = env.PCSamp
	h, opts := setup(ctx)
	// Instrumentation metrics attach only on the uncached path below: cached
	// builds are shared, and their instrument pass already reported through
	// the cache's own hooks on first build.
	// Cached programs are shared read-only, so instrumentation must happen
	// inside the build closure; options carrying a Select closure are
	// uncacheable and take the fresh-compile path.
	var prog *sass.Program
	var err error
	if instKey, cacheable := opts.CacheKey(); env.Cache != nil && cacheable {
		prog, err = env.Cache.Get(spec.InstrumentedKey(ptxas.Options{}, instKey),
			func() (*sass.Program, error) {
				p, berr := spec.Compile(ptxas.Options{})
				if berr != nil {
					return nil, berr
				}
				if berr := sassi.Instrument(p, opts); berr != nil {
					return nil, berr
				}
				return p, nil
			})
	} else {
		opts.Metrics = env.Metrics
		opts.Trace = env.Trace
		prog, err = spec.Compile(ptxas.Options{})
		if err == nil {
			err = sassi.Instrument(prog, opts)
		}
	}
	if err != nil {
		return nil, err
	}
	rt := sassi.NewRuntime(prog)
	rt.Metrics = env.Metrics
	if err := rt.Register(h); err != nil {
		return nil, err
	}
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, dataset)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s(%s): %w", workload, dataset, err)
	}
	if res.VerifyErr != nil {
		return nil, fmt.Errorf("experiments: %s(%s) failed verification under instrumentation: %w",
			workload, dataset, res.VerifyErr)
	}
	return ctx, nil
}

// baselineRun runs a workload uninstrumented and reports wall time and
// context stats.
func baselineRun(env Env, workload, dataset string) (*cuda.Context, time.Duration, error) {
	spec, ok := workloads.Get(workload)
	if !ok {
		return nil, 0, fmt.Errorf("experiments: unknown workload %q", workload)
	}
	prog, err := spec.CompileCached(env.Cache, ptxas.Options{})
	if err != nil {
		return nil, 0, err
	}
	ctx := cuda.NewContext(env.Config)
	ctx.Device().Metrics = env.Metrics
	ctx.Device().Trace = env.Trace
	ctx.Device().PCSamp = env.PCSamp
	start := time.Now()
	res, err := spec.Run(ctx, prog, dataset)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if res.VerifyErr != nil {
		return nil, 0, fmt.Errorf("experiments: %s baseline failed verification: %w", workload, res.VerifyErr)
	}
	return ctx, wall, nil
}
