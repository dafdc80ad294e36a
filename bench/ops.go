package main

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/faults"
	"sassi/internal/handlers"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/trace"
	"sassi/internal/workloads"
)

// op is one operation: one program pushed through the pipeline once. Every
// call into a layer happens inside a span of the recorder it is handed.
type op struct {
	name string
	tag  string // case-study tool the operation works for, "" for none
	// units is how many operations this one counts for in attempted/failed:
	// a campaign counts one per injection run. Zero means one.
	units int
	run   func(r *recorder) (opResult, error)
}

// opResult is what an operation reports besides success.
type opResult struct {
	// sig spells every simulated counter, code size or campaign outcome the
	// operation produced. It must be identical every time the operation
	// runs in a process: the simulator is deterministic and so is the
	// compiler, so a difference is a failure, not noise.
	sig string
	// cycles is the modeled kernel cycles the benchmark could read.
	cycles uint64
}

// noVerify turns the compiler's and instrumentor's verifier post-passes off
// wherever the benchmark does not time them explicitly, so a run under
// `go test` (where the zero value means on) does the work the binary does.
const noVerify = analysis.VerifyOff

// tool is one of the paper's case-study profilers, bound to a context.
type tool struct {
	name string
	new  func(ctx *cuda.Context) toolInstance
}

type toolInstance struct {
	handler *sassi.Handler
	options sassi.Options
	collect func() (any, error) // reads the tool's results back from the device
}

var tools = []tool{
	{"branch", func(ctx *cuda.Context) toolInstance {
		p := handlers.NewBranchProfiler(ctx)
		return toolInstance{p.Handler(), p.Options(), func() (any, error) { return p.Results() }}
	}},
	{"memdiv", func(ctx *cuda.Context) toolInstance {
		p := handlers.NewMemDivProfiler(ctx)
		return toolInstance{p.Handler(), p.Options(), func() (any, error) { return p.Matrix() }}
	}},
	{"value", func(ctx *cuda.Context) toolInstance {
		p := handlers.NewValueProfiler(ctx)
		return toolInstance{p.Handler(), p.Options(), func() (any, error) { return p.Results() }}
	}},
}

// noopBody is a handler body that does nothing. Its parameter types are
// inferred from sassi.HandlerFunc at the assignment, so the benchmark names
// neither the handler context type nor the argument struct and keeps
// compiling if the handler ABI changes shape.
func noopBody[C, A any](C, A) {}

func sassInstrs(p *sass.Program) uint64 {
	n := 0
	for _, k := range p.Kernels {
		n += len(k.Instrs)
	}
	return uint64(n)
}

// sites counts the handler calls the instrumentor placed.
func sites(p *sass.Program) uint64 {
	n := uint64(0)
	for _, k := range p.Kernels {
		for i := range k.Instrs {
			if k.Instrs[i].Op == sass.OpJCAL {
				n++
			}
		}
	}
	return n
}

// instrument injects a tool's handler calls into prog inside one
// "sassi.inject" span and records the code growth and the sites placed.
func instrument(r *recorder, prog *sass.Program, opts sassi.Options) error {
	var err error
	r.do("sassi.inject", func() {
		before := sassInstrs(prog)
		opts.Verify = noVerify
		if err = sassi.Instrument(prog, opts); err == nil {
			r.count("sassi.instrs_before", before)
			r.count("sassi.instrs_after", sassInstrs(prog))
			r.count("sassi.sites", sites(prog))
		}
	})
	return err
}

func digest(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// newContext creates a device with the default configuration and, when
// tracing, subscribes the launch callbacks that time sim from outside: the
// span between PreLaunch and PostLaunch is the inside of LaunchKernel.
func newContext(r *recorder) *cuda.Context {
	var ctx *cuda.Context
	r.do("cuda.context", func() { ctx = cuda.NewContext(sim.KeplerK10()) })
	if r == nil {
		return ctx
	}
	launch := -1
	ctx.Subscribe(cuda.LaunchCallbacks{
		PreLaunch: func(string, int) { launch = r.begin("sim.launch") },
		PostLaunch: func(_ string, _ int, st *sim.KernelStats, _ error) {
			if st != nil {
				r.count("sim.warp_instrs", st.WarpInstrs)
				r.count("sim.thread_instrs", st.ThreadInstrs)
				r.count("sim.injected_warp_instrs", st.InjectedWarpInstrs)
				r.count("sim.handler_calls", st.HandlerCalls)
				r.count("sim.model_cycles", st.Cycles)
				r.count("sim.global_transactions", st.GlobalTransactions)
				r.count("sim.scoreboard_stalls", st.ScoreboardStalls)
			}
			r.count("cuda.launches", 1)
			r.end(launch)
		},
	})
	return ctx
}

// runProgram launches the workload on ctx and checks it against the CPU
// reference, which does not depend on the simulator.
func runProgram(r *recorder, spec *workloads.Spec, ctx *cuda.Context, prog *sass.Program) error {
	var res *workloads.Result
	var err error
	r.do("cuda.run", func() { res, err = spec.Run(ctx, prog, spec.DefaultDataset()) })
	if err != nil {
		return err
	}
	if res.VerifyErr != nil {
		return fmt.Errorf("CPU reference mismatch: %w", res.VerifyErr)
	}
	return nil
}

func contextSig(ctx *cuda.Context) string {
	return fmt.Sprintf("launches=%d cycles=%d warp=%d injected=%d calls=%d stalls=%d",
		ctx.Launches(), ctx.TotalKernelCycles, ctx.TotalWarpInstrs,
		ctx.TotalInjectedWarpInstrs, ctx.TotalHandlerCalls, ctx.TotalScoreboardStalls)
}

// runOp is compile -> [instrument -> link handler] -> context -> run ->
// [collect]. With t == nil the program runs uninstrumented; with noop the
// tool's injected code runs but its handler body is empty.
func runOp(spec *workloads.Spec, t *tool, noop bool, tag string) op {
	name := spec.Name
	if t != nil {
		name += "/" + t.name
	}
	if noop {
		name += "/noop"
	}
	return op{name: name, tag: tag, run: func(r *recorder) (opResult, error) {
		var prog *sass.Program
		var err error
		r.do("ptxas.compile", func() {
			prog, err = spec.Compile(ptxas.Options{Verify: noVerify})
			if err == nil {
				r.count("ptxas.sass_instrs", sassInstrs(prog))
			}
		})
		if err != nil {
			return opResult{}, err
		}
		ctx := newContext(r)
		collected := ""
		var inst toolInstance
		if t != nil {
			r.do("handlers.new", func() { inst = t.new(ctx) })
			if err = instrument(r, prog, inst.options); err != nil {
				return opResult{}, err
			}
			h := inst.handler
			if noop {
				var body sassi.HandlerFunc = noopBody
				h = &sassi.Handler{Name: h.Name, What: h.What, Fn: body}
			}
			r.do("sassi.link", func() {
				rt := sassi.NewRuntime(prog)
				if err = rt.Register(h); err == nil {
					rt.Attach(ctx.Device())
				}
			})
			if err != nil {
				return opResult{}, err
			}
		}
		if err := runProgram(r, spec, ctx, prog); err != nil {
			return opResult{}, err
		}
		if t != nil {
			var results any
			r.do("handlers.collect", func() { results, err = inst.collect() })
			if err != nil {
				return opResult{}, fmt.Errorf("collect: %w", err)
			}
			if !noop {
				collected = " results=" + digest(results)
			}
		}
		return opResult{sig: contextSig(ctx) + collected, cycles: ctx.TotalKernelCycles}, nil
	}}
}

// replayOp records one pass of the program's global-memory transactions
// with trace.MemTracer and replays them through trace.ReplayCache, which
// drives the cache model alone: the cache's host cost per access without
// the rest of sim.
func replayOp(spec *workloads.Spec) op {
	return op{name: spec.Name + "/replay", run: func(r *recorder) (opResult, error) {
		prog, err := spec.Compile(ptxas.Options{Verify: noVerify})
		if err != nil {
			return opResult{}, err
		}
		cfg := sim.KeplerK10()
		ctx := cuda.NewContext(cfg)
		var mt trace.MemTracer
		mt.Attach(ctx.Device())
		if err := runProgram(nil, spec, ctx, prog); err != nil {
			return opResult{}, err
		}
		var res trace.CacheSimResult
		r.do("mem.replay", func() {
			res = trace.ReplayCache(&mt, cfg.L1Bytes, cfg.L1Line, cfg.L1Ways)
			r.count("mem.replay_accesses", res.Accesses)
			r.count("mem.replay_hits", res.Hits)
		})
		return opResult{sig: fmt.Sprintf("accesses=%d hits=%d", res.Accesses, res.Hits)}, nil
	}}
}

// compileInput is one PTX module source for the compile-only workload.
type compileInput struct {
	name  string
	build func() (*ptx.Module, error)
}

// compileOp pushes one module through every stage that runs before a
// launch: build, ptxas with the scheduler off and on, the binary codec, a
// fresh compile plus injection per tool, and explicit verification of the
// uninstrumented, branch- and memdiv-instrumented programs. The
// value-instrumented program is not verified: it alone would be about three
// quarters of the workload and hide every other stage.
func compileOp(in compileInput, toolOpts []sassi.Options) op {
	return op{name: in.name, run: func(r *recorder) (opResult, error) {
		compile := func(span string, opts ptxas.Options) (*sass.Program, error) {
			var m *ptx.Module
			var prog *sass.Program
			var err error
			r.do("ptx.build", func() {
				if m, err = in.build(); err == nil {
					n := 0
					for _, f := range m.Funcs {
						n += len(f.Instrs)
					}
					r.count("ptx.instrs", uint64(n))
				}
			})
			if err != nil {
				return nil, fmt.Errorf("build: %w", err)
			}
			opts.Verify = noVerify
			r.do(span, func() {
				if prog, err = ptxas.Compile(m, opts); err == nil && !opts.Schedule {
					r.count("ptxas.sass_instrs", sassInstrs(prog))
				}
			})
			return prog, err
		}
		verify := func(prog *sass.Program) error {
			bad := false
			r.do("analysis.verify", func() {
				bad = analysis.HasErrors(analysis.Verify(prog))
				r.count("analysis.verified_instrs", sassInstrs(prog))
			})
			if bad {
				return fmt.Errorf("verifier reported errors")
			}
			return nil
		}
		defer r.setTag(r.setTag("base"))
		base, err := compile("ptxas.compile", ptxas.Options{})
		if err != nil {
			return opResult{}, err
		}
		sched, err := compile("ptxas.compile_sched", ptxas.Options{Schedule: true})
		if err != nil {
			return opResult{}, err
		}
		sig := fmt.Sprintf("sass=%d sched=%d", sassInstrs(base), sassInstrs(sched))
		bytes := 0
		r.do("sass.codec", func() {
			for _, k := range base.Kernels {
				var data []byte
				if data, err = k.MarshalBinary(); err != nil {
					return
				}
				var back sass.Kernel
				if err = back.UnmarshalBinary(data); err != nil {
					return
				}
				if len(back.Instrs) != len(k.Instrs) {
					err = fmt.Errorf("round trip of %s: %d instructions became %d", k.Name, len(k.Instrs), len(back.Instrs))
					return
				}
				bytes += len(data)
			}
			r.count("sass.bytes", uint64(bytes))
		})
		if err != nil {
			return opResult{}, fmt.Errorf("codec: %w", err)
		}
		sig += fmt.Sprintf(" bytes=%d", bytes)
		if err := verify(base); err != nil {
			return opResult{}, err
		}
		for i := range tools {
			t := &tools[i]
			r.setTag(t.name)
			prog, err := compile("ptxas.compile", ptxas.Options{})
			if err != nil {
				return opResult{}, err
			}
			if err := instrument(r, prog, toolOpts[i]); err != nil {
				return opResult{}, fmt.Errorf("instrument %s: %w", t.name, err)
			}
			sig += fmt.Sprintf(" %s=%d/%d", t.name, sassInstrs(prog), sites(prog))
			if t.name != "value" {
				if err := verify(prog); err != nil {
					return opResult{}, fmt.Errorf("%s-instrumented: %w", t.name, err)
				}
			}
		}
		return opResult{sig: sig}, nil
	}}
}

// toolOptions returns each tool's instrumentation options, indexed like
// tools. The profilers only hand them out from an instance bound to a
// context, so a throw-away context supplies them to the workload that never
// launches.
func toolOptions() []sassi.Options {
	ctx := cuda.NewContext(sim.KeplerK10())
	opts := make([]sassi.Options, len(tools))
	for i := range tools {
		opts[i] = tools[i].new(ctx).options
	}
	return opts
}

// campaignSeed is the fixed faults.Campaign.Seed. The benchmark seed does
// not reach it: which sites a campaign draws decides how many runs crash
// early or run to the end, and that moved one iteration's wall clock by up
// to 18% between seeds, more than twice the bound on wall_s.
const campaignSeed = 1

// campaignOp is case study IV: golden run, profiling run, then the
// injection runs on a pool of workers (0 means GOMAXPROCS of them).
func campaignOp(spec *workloads.Spec, injections, workers int) op {
	return op{name: fmt.Sprintf("%s/fi-%d", spec.Name, injections), units: injections, run: func(r *recorder) (opResult, error) {
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		c := faults.Campaign{
			Spec: spec, Dataset: spec.DefaultDataset(),
			Injections: injections, Seed: campaignSeed,
			Config: sim.KeplerK10(), Workers: workers,
		}
		var res *faults.Result
		var err error
		r.do("faults.campaign", func() {
			if res, err = c.Run(); err == nil {
				r.count("faults.runs", uint64(injections))
				for i, n := range res.Counts {
					r.count("faults.outcome_"+faults.Outcome(i).String(), uint64(n))
				}
			}
		})
		if err != nil {
			return opResult{}, err
		}
		return opResult{sig: fmt.Sprintf("outcomes=%v sites=%d", res.Counts, res.SitesTotal)}, nil
	}}
}
