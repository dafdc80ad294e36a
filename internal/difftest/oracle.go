package difftest

import (
	"fmt"
	"hash/fnv"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/obs"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
)

// Oracle runs one generated kernel through the full differential matrix.
type Oracle struct {
	// Cfg is the device model; SequentialSMs is overridden per launch, and
	// the reference cells install package simref's interpreter.
	Cfg sim.Config
	// Tools are the instrumentation tools checked for transparency.
	Tools []handlers.ToolSpec
	// Cache deduplicates compiles and instrumented builds across oracle
	// runs — the shared compile-cache discipline from the fault campaigns.
	Cache *sassi.CompileCache

	// lastSeq threads each tool's sequential run to its parallel sibling
	// inside Run. Oracles are single-goroutine; campaign workers each own
	// their own Oracle.
	lastSeq *RunState
}

// NewOracle builds an oracle on device model cfg (zero = MiniGPU) with the
// given tools (nil = every tool of handlers.Tools) and a compile cache of
// its own.
func NewOracle(tools []handlers.ToolSpec, cfg sim.Config) *Oracle {
	if tools == nil {
		tools = handlers.Tools()
	}
	if cfg.NumSMs == 0 {
		cfg = sim.MiniGPU()
	}
	return &Oracle{Cfg: cfg, Tools: tools, Cache: sassi.NewCompileCache()}
}

// Result is one kernel's verdict across the whole matrix.
type Result struct {
	Launches int
	Failures []Failure
}

// Failed reports whether any comparison diverged.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// coreCell is one point of the execution axis: which model executes the
// kernel (the reference interpreter, or the predecoded core every default
// sim.Config runs) and how SMs are dispatched.
type coreCell struct {
	reference  bool
	sequential bool
	suffix     string
}

// coreCells is the execution axis of the matrix, reference vs default core
// times SM dispatch. coreCells[0], the reference interpreter with SMs in
// order, is the reference: every other cell must be bit-equal to it —
// memory, registers, statistics, and metric snapshots.
var coreCells = []coreCell{
	{true, true, "ref-seq"},
	{true, false, "ref-par"},
	{false, true, "core-seq"},
	{false, false, "core-par"},
}

// Run executes the matrix for one generated kernel:
//
//	base/ref-seq ──full── base/ref-par   (SM-dispatch determinism)
//	base/ref-seq ──full── base/core-*    (default core equals the reference)
//	base/ref-seq ─transp─ tool/ref-seq   (injection transparency, per tool)
//	tool/ref-seq ──full── tool/ref-par   (determinism under tools)
//	tool/ref-seq ──full── tool/core-*    (injected code on the default core)
//	base/ref-seq ─transp─ tool@cta.w/ref-seq  (one warp from the tool's kernel, the
//	                                           rest from base: sim.LaunchParams.Twin)
//	tool@cta.w/ref-seq ─full─ tool@cta.w/core-par
//
// A non-nil error means the harness itself failed (the kernel would not
// compile or the uninstrumented reference would not run) — a generator
// bug, not an oracle verdict.
func (o *Oracle) Run(p *Prog) (*Result, error) {
	fp, err := o.fingerprint(p)
	if err != nil {
		return nil, err
	}
	base, err := o.Cache.Get(fp+"/base", func() (*sass.Program, error) {
		return o.compile(p)
	})
	if err != nil {
		return nil, fmt.Errorf("difftest: compile seed %d: %w", p.Seed, err)
	}
	res := &Result{}

	ref, err := o.launch(p, base, nil, coreCells[0], "base")
	res.Launches++
	if err != nil {
		return nil, fmt.Errorf("difftest: reference run seed %d: %w", p.Seed, err)
	}
	for _, cell := range coreCells[1:] {
		st, err := o.launch(p, base, nil, cell, "base")
		res.Launches++
		if err != nil {
			res.Failures = append(res.Failures, Failure{Axis: "engine",
				Want: ref.Variant, Got: "base/" + cell.suffix, Diff: fmt.Sprintf("launch failed: %v", err)})
			continue
		}
		res.Failures = append(res.Failures, compareFull(ref, st)...)
	}

	for _, tool := range o.Tools {
		tool := tool
		for i, cell := range coreCells {
			st, err := o.launch(p, nil, &instrumentedSpec{fp: fp, tool: tool}, cell, tool.Name)
			res.Launches++
			if err != nil {
				res.Failures = append(res.Failures, Failure{Axis: "transparency",
					Want: ref.Variant, Got: tool.Name + "/" + cell.suffix,
					Diff: fmt.Sprintf("launch failed: %v", err)})
				break
			}
			if i == 0 {
				res.Failures = append(res.Failures,
					compareTransparent(ref, st, sassi.HandlerMaxRegs)...)
				o.lastSeq = st
			} else if o.lastSeq != nil {
				res.Failures = append(res.Failures, compareFull(o.lastSeq, st)...)
			}
		}
		o.lastSeq = nil

		// The per-warp kernel selection the fault campaigns run on: one
		// warp of one CTA, both picked by the seed, executes the tool's
		// kernel and the rest — its CTA's other warps included, across
		// barriers and shared memory — the base kernel, on the reference
		// and on the default core with the other SM dispatch.
		warps := (p.BlockX + sim.WarpSize - 1) / sim.WarpSize
		mixed := &instrumentedSpec{fp: fp, tool: tool,
			cta: int(p.Seed % uint64(p.GridX)), warp: int(p.Seed / uint64(p.GridX) % uint64(warps))}
		build := fmt.Sprintf("%s@cta%d.w%d", tool.Name, mixed.cta, mixed.warp)
		var mixedRef *RunState
		for _, cell := range []coreCell{coreCells[0], coreCells[len(coreCells)-1]} {
			st, err := o.launch(p, base, mixed, cell, build)
			res.Launches++
			if err != nil {
				res.Failures = append(res.Failures, Failure{Axis: "transparency",
					Want: ref.Variant, Got: build + "/" + cell.suffix,
					Diff: fmt.Sprintf("launch failed: %v", err)})
				break
			}
			if mixedRef == nil {
				res.Failures = append(res.Failures,
					compareTransparent(ref, st, sassi.HandlerMaxRegs)...)
				mixedRef = st
			} else {
				res.Failures = append(res.Failures, compareFull(mixedRef, st)...)
			}
		}
	}
	return res, nil
}

// RunSchedule extends the matrix with the scheduling axis: the same
// source compiled with the post-RA list scheduler (ptxas
// Options.Schedule, tie-broken by schedSeed) must retire with bit-equal
// architectural state — every buffer, register, predicate, and memory
// space — in every cell of the execution axis; only timing may move. The
// scheduled build also passes through the compile-time verifier (the
// `schedule` check) under go test, so an illegal reorder fails compilation
// before it ever runs.
//
//	base/ref-seq ──arch── sched/*           (schedule transparency, every cell)
//	sched/ref-seq ─full── sched/ref-par     (SM-dispatch determinism, scheduled)
//	sched/ref-seq ─full── sched/core-*      (default core equals the reference, scheduled)
func (o *Oracle) RunSchedule(p *Prog, schedSeed uint64) (*Result, error) {
	fp, err := o.fingerprint(p)
	if err != nil {
		return nil, err
	}
	base, err := o.Cache.Get(fp+"/base", func() (*sass.Program, error) {
		return o.compile(p)
	})
	if err != nil {
		return nil, fmt.Errorf("difftest: compile seed %d: %w", p.Seed, err)
	}
	sched, err := o.Cache.Get(fmt.Sprintf("%s/sched/%d", fp, schedSeed),
		func() (*sass.Program, error) {
			m, err := p.Build()
			if err != nil {
				return nil, err
			}
			return ptxas.Compile(m, ptxas.Options{Schedule: true, SchedSeed: schedSeed})
		})
	if err != nil {
		return nil, fmt.Errorf("difftest: scheduled compile seed %d: %w", p.Seed, err)
	}
	res := &Result{}

	ref, err := o.launch(p, base, nil, coreCells[0], "base")
	res.Launches++
	if err != nil {
		return nil, fmt.Errorf("difftest: reference run seed %d: %w", p.Seed, err)
	}
	var schedSeq *RunState
	for i, cell := range coreCells {
		st, err := o.launch(p, sched, nil, cell, "sched")
		res.Launches++
		if err != nil {
			res.Failures = append(res.Failures, Failure{Axis: "schedule",
				Want: ref.Variant, Got: "sched/" + cell.suffix,
				Diff: fmt.Sprintf("launch failed: %v", err)})
			continue
		}
		res.Failures = append(res.Failures, compareArch(ref, st)...)
		if i == 0 {
			schedSeq = st
		} else if schedSeq != nil {
			res.Failures = append(res.Failures, compareFull(schedSeq, st)...)
		}
	}
	return res, nil
}

// compile renders and compiles the base program. The module is rebuilt
// from the Prog each time because the backend optimizes ptx in place.
func (o *Oracle) compile(p *Prog) (*sass.Program, error) {
	m, err := p.Build()
	if err != nil {
		return nil, err
	}
	return ptxas.Compile(m, ptxas.Options{})
}

// fingerprint keys the compile cache by rendered kernel text, so distinct
// Progs never collide and identical ones (fuzz duplicates, shrinker
// retries) share one compile.
func (o *Oracle) fingerprint(p *Prog) (string, error) {
	m, err := p.Build()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	fmt.Fprint(h, m.Funcs[0].Dump())
	return fmt.Sprintf("difftest/%016x", h.Sum64()), nil
}

type instrumentedSpec struct {
	fp   string
	tool handlers.ToolSpec
	// cta and warp name the one warp that runs the instrumented kernel
	// when launch is given the base program too.
	cta, warp int
}

// launch runs one matrix cell and snapshots its final state as variant
// build/cell.suffix. base alone launches the uninstrumented program; inst
// alone builds (through the cache) the tool-instrumented variant and
// launches it; both launch base with that variant as the twin of warp
// inst.warp of CTA inst.cta.
func (o *Oracle) launch(p *Prog, base *sass.Program, inst *instrumentedSpec,
	cell coreCell, build string) (*RunState, error) {
	cfg := o.Cfg
	cfg.SequentialSMs = cell.sequential
	ctx := cuda.NewContext(cfg)
	dev := ctx.Device()
	if cell.reference {
		simref.Install(dev)
	}
	reg := obs.NewRegistry()
	dev.Metrics = reg

	// Kernel-owned buffers first, so their addresses match across all
	// variants regardless of which tool allocates state afterwards.
	inBuf := make([]uint32, InWords)
	for i := range inBuf {
		inBuf[i] = uint32(SplitMix(p.Seed, uint64(i)))
	}
	inPtr := ctx.AllocU32("difftest.in", inBuf)
	outPtr := ctx.Malloc(uint64(4 * p.OutWords()))
	if err := ctx.Memset32(outPtr, 0, p.OutWords()); err != nil {
		return nil, err
	}
	accPtr := ctx.Malloc(4 * AccWords)
	if err := ctx.Memset32(accPtr, 0, AccWords); err != nil {
		return nil, err
	}

	prog := base
	if inst != nil {
		// A tool's options depend on its name alone, so the name keys its
		// build of this kernel.
		tool := inst.tool.New(ctx)
		var err error
		prog, err = o.Cache.Get(inst.fp+"/tool/"+inst.tool.Name,
			func() (*sass.Program, error) {
				ip, err := o.compile(p)
				if err != nil {
					return nil, err
				}
				if err := sassi.Instrument(ip, tool.Options()); err != nil {
					return nil, err
				}
				return ip, nil
			})
		if err != nil {
			return nil, fmt.Errorf("difftest: instrument %s: %w", inst.tool.Name, err)
		}
		if err := handlers.Prepare(tool, prog); err != nil {
			return nil, fmt.Errorf("difftest: prepare %s: %w", inst.tool.Name, err)
		}
		rt := sassi.NewRuntime(prog)
		rt.Metrics = reg
		// A kernel with no sites of the tool's class (e.g. no conditional
		// branches for the branch profiler) gets no JCAL for the symbol;
		// the handler simply never fires.
		h := tool.Handler()
		if _, ok := prog.Handlers[h.Name]; ok {
			if err := rt.Register(h); err != nil {
				return nil, err
			}
		}
		rt.Attach(dev)
	}

	col := newCollector()
	dev.CTARetire = col.hook
	params := sim.LaunchParams{
		Grid:  sim.D1(p.GridX),
		Block: sim.D1(p.BlockX),
		Args:  []uint64{uint64(inPtr), uint64(outPtr), uint64(accPtr)},
	}
	if inst != nil && base != nil {
		params.Twin = &sim.Twin{Prog: prog, Warps: func(cta, warp int) bool { return cta == inst.cta && warp == inst.warp }}
		prog = base
	}
	stats, err := ctx.LaunchKernel(prog, KernelName, params)
	if err != nil {
		return nil, err
	}
	out, err := ctx.ReadU32(outPtr, p.OutWords())
	if err != nil {
		return nil, err
	}
	acc, err := ctx.ReadU32(accPtr, AccWords)
	if err != nil {
		return nil, err
	}
	return &RunState{
		Variant: build + "/" + cell.suffix,
		CTAs:    col.ctas,
		Out:     out,
		Acc:     acc,
		Stats:   stats,
		Metrics: reg.Flat("sm"),
	}, nil
}
