package difftest

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// edgeRecorder is a before-all handler that follows every thread through
// the kernel being instrumented: each site names its instruction
// (InsOffset), so a thread's consecutive sites are a step of that thread's
// execution, and each step must be an edge of sass.BuildCFG — an edge p→q
// means a lane active at p is next active at q — or a call edge (CAL to
// its target, RET to the instruction after some CAL), which the CFG leaves
// out. On a kernel another tool instrumented, only the tool's input
// instructions get sites (a site between the tool's argument setup and
// its JCAL would clobber the arguments), and a step may pass through the
// tool's injected instructions on CFG edges.
type edgeRecorder struct {
	label string
	// next[k][p] lists the recorded instructions a thread may execute
	// after recorded instruction p of kernel k, taken from the CFG before
	// the recorder's instrumentation.
	next  [][][]int32
	names []string
	ops   [][]sass.Opcode
	last  []int32 // last[tid]: the previous instruction + 1; 0 for none yet
	bad   map[string]bool
}

const edgeHandler = "cfg_edge_trace"

// newEdgeRecorder takes each kernel's edges from BuildCFG; it must run
// before the recorder's instrumentation rewrites the kernels.
func newEdgeRecorder(t *testing.T, label string, prog *sass.Program) *edgeRecorder {
	t.Helper()
	r := &edgeRecorder{label: label, bad: map[string]bool{}}
	for _, k := range prog.Kernels {
		cfg, err := sass.BuildCFG(k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		steps := func(p int) []int {
			var out []int
			if b := cfg.BlockOf(p); p+1 < b.End {
				out = append(out, p+1)
			} else {
				for _, s := range b.Succs {
					out = append(out, cfg.Blocks[s].Start)
				}
			}
			switch in := &k.Instrs[p]; in.Op {
			case sass.OpCAL:
				t, _ := in.BranchTarget()
				out = append(out, int(t.Imm))
			case sass.OpRET:
				for c := range k.Instrs {
					if k.Instrs[c].Op == sass.OpCAL {
						out = append(out, c+1)
					}
				}
			}
			return out
		}
		next := make([][]int32, len(k.Instrs))
		for p := range k.Instrs {
			if k.Instrs[p].Injected {
				continue
			}
			seen := map[int]bool{}
			work := steps(p)
			for len(work) > 0 {
				q := work[len(work)-1]
				work = work[:len(work)-1]
				if seen[q] {
					continue
				}
				seen[q] = true
				if k.Instrs[q].Injected {
					work = append(work, steps(q)...)
				} else {
					next[p] = append(next[p], int32(q))
				}
			}
		}
		r.next = append(r.next, next)
		r.names = append(r.names, k.Name)
		ops := make([]sass.Opcode, len(k.Instrs))
		for i := range k.Instrs {
			ops[i] = k.Instrs[i].Op
		}
		r.ops = append(r.ops, ops)
	}
	return r
}

// options sites the recorder before every instruction the program's
// kernels had before any instrumentation.
func (r *edgeRecorder) options(prog *sass.Program) sassi.Options {
	opts := sassi.Options{Where: sassi.BeforeAll, BeforeHandler: edgeHandler}
	for _, k := range prog.Kernels {
		for i := range k.Instrs {
			if k.Instrs[i].Injected {
				opts.Select = func(_ *sass.Kernel, _ int, in *sass.Instruction) bool { return !in.Injected }
			}
		}
	}
	return opts
}

func (r *edgeRecorder) handler() *sassi.Handler {
	return &sassi.Handler{Name: edgeHandler, Fn: func(w *device.Warp, args sassi.HandlerArgs) {
		k := int(args.BP.FnAddr()>>20) - 1
		q := int32(sass.IndexOfOffset(args.BP.InsOffset()))
		for l := w.First(); l >= 0; l = w.Next(l) {
			tid := int(w.Lane(l).GlobalThreadIdx())
			if tid >= len(r.last) {
				r.last = slices.Grow(r.last, tid+1-len(r.last))[:tid+1]
			}
			if p := r.last[tid] - 1; p >= 0 && !slices.Contains(r.next[k][p], q) {
				r.bad[fmt.Sprintf("%s %s: %s @%04x -> @%04x", r.label, r.names[k], r.ops[k][p], sass.InsOffset(int(p)), sass.InsOffset(int(q)))] = true
			}
			r.last[tid] = q + 1
		}
	}}
}

// recTool is the recorder as a tool of the oracle, sited on prog.
type recTool struct {
	rec  *edgeRecorder
	prog *sass.Program
}

func (t recTool) Options() sassi.Options  { return t.rec.options(t.prog) }
func (t recTool) Handler() *sassi.Handler { return t.rec.handler() }

// launched starts the next launch's threads afresh.
func (r *edgeRecorder) launched() { clear(r.last) }

// edgeTools are the instrumentations the recorder is stacked on: the
// tool's own sites run, and the recorder checks the kernel they produced.
// The error-injection profiler is not a named tool, but its sites are
// stacked on too.
func edgeTools() []handlers.ToolSpec {
	return append([]handlers.ToolSpec{{Name: "errorinj", New: func(ctx *cuda.Context) handlers.Tool {
		return handlers.NewInjProfiler(ctx, 1)
	}}}, handlers.Tools()...)
}

// edgeWarps is the share of warps that run the recorded kernel in a
// workload: warp w of CTA c does when (c+w)%edgeWarps == 0, so every warp
// index of a CTA is covered across CTAs. The others run the plain kernel.
const edgeWarps = 8

// TestCFGEdgesMatchExecution is the CFG's oracle: every step a recorded
// thread takes, in every workload plain, scheduled and under seven
// instrumentations, and in difftest kernels of seeds 0-399, must be a CFG
// edge or a call edge. Liveness runs on these edges, so a step the CFG
// lacks is a register an injected site may clobber.
func TestCFGEdgesMatchExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload eight times")
	}
	report := func(t *testing.T, r *edgeRecorder) {
		bad := make([]string, 0, len(r.bad))
		for s := range r.bad {
			bad = append(bad, s)
		}
		sort.Strings(bad)
		for _, s := range bad {
			t.Errorf("step outside the CFG: %s", s)
		}
	}
	type variant struct {
		name  string
		sched bool
		tool  *handlers.ToolSpec
	}
	variants := []variant{{name: "plain"}, {name: "scheduled", sched: true}}
	for _, tool := range edgeTools() {
		variants = append(variants, variant{name: tool.Name, tool: &tool})
	}
	for _, name := range workloads.Names() {
		spec, _ := workloads.Get(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, v := range variants {
				label := spec.Name + "/" + v.name
				cfg := sim.MiniGPU()
				cfg.SequentialSMs = true // the recorder is for one goroutine
				ctx := cuda.NewContext(cfg)
				// base runs in every warp the recorder does not.
				base, err := spec.Compile(ptxas.Options{Schedule: v.sched})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				prog, _ := spec.Compile(ptxas.Options{Schedule: v.sched})
				var tool handlers.Tool
				if v.tool != nil {
					tool = v.tool.New(ctx)
					opts := tool.Options()
					opts.Verify = analysis.VerifyOff
					if err := sassi.Instrument(prog, opts); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				rec := newEdgeRecorder(t, label, prog)
				if err := sassi.Instrument(prog, rec.options(prog)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				rt := sassi.NewRuntime(prog)
				rt.MustRegister(rec.handler())
				if tool != nil {
					h := tool.Handler()
					if _, ok := prog.Handlers[h.Name]; ok {
						rt.MustRegister(h)
					}
					if err := handlers.Prepare(tool, prog); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				rt.Attach(ctx.Device())
				ctx.Subscribe(cuda.LaunchCallbacks{
					Twin: func(string, int) *sim.Twin {
						return &sim.Twin{Prog: prog, Warps: func(cta, warp int) bool { return (cta+warp)%edgeWarps == 0 }}
					},
					PostLaunch: func(string, int, *sim.KernelStats, error) { rec.launched() },
				})
				res, err := spec.Run(ctx, base, spec.DefaultDataset())
				switch {
				case err != nil:
					t.Errorf("%s: %v", label, err)
				case res.VerifyErr != nil:
					t.Errorf("%s: %v", label, res.VerifyErr)
				}
				report(t, rec)
			}
		})
	}

	t.Run("difftest", func(t *testing.T) {
		t.Parallel()
		o := NewOracle(nil, sim.MiniGPU())
		for seed := uint64(0); seed < 400; seed++ {
			p := Generate(seed, DefaultSize())
			fp, err := o.fingerprint(p)
			if err != nil {
				t.Fatal(err)
			}
			base, err := o.compile(p)
			if err != nil {
				t.Fatal(err)
			}
			rec := newEdgeRecorder(t, fmt.Sprintf("difftest/%d", seed), base)
			tool := handlers.ToolSpec{Name: "cfg-edges", New: func(*cuda.Context) handlers.Tool {
				return recTool{rec, base}
			}}
			if _, err := o.launch(p, nil, &instrumentedSpec{fp: fp, tool: tool}, coreCells[2], tool.Name); err != nil {
				t.Errorf("difftest/%d: %v", seed, err)
			}
			report(t, rec)
		}
	})
}
