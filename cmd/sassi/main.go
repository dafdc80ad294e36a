// Command sassi compiles a benchmark from the built-in suite, optionally
// instruments it with one of the case-study tools, runs it on the
// simulated GPU, and reports statistics — the workflow of the paper's
// Figure 1, driven from the command line like the real ptxas integration.
//
// Usage:
//
//	sassi -list
//	sassi -workload parboil.bfs -dataset NY -tool branch
//	sassi -workload demo.vecadd -disas
//	sassi -workload minife.csr -tool memdiv -gpu k40
//
// Kernels can also come from a PTX-like assembly file instead of the
// built-in suite; pointer parameters get zero-filled device buffers and
// scalar parameters come from -args:
//
//	sassi -ptx kernel.sptx -disas
//	sassi -ptx kernel.sptx -tool opcount -args 256
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/obs"
	"sassi/internal/obscli"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list available workloads and exit")
	workload := flag.String("workload", "demo.vecadd", "workload to run")
	dataset := flag.String("dataset", "", "dataset (default: workload's first)")
	tool := flag.String("tool", "none", "instrumentation: none, opcount, branch, memdiv, valueprof")
	gpu := obscli.RegisterGPU("k10")
	disas := flag.Bool("disas", false, "print the compiled (and instrumented) SASS")
	ptxFile := flag.String("ptx", "", "compile kernels from a PTX-like assembly file instead of a workload")
	args := flag.String("args", "", "comma list of scalar kernel arguments for -ptx kernels")
	grid := flag.Int("grid", 1, "grid size (CTAs) for -ptx kernels")
	block := flag.Int("block", 128, "block size (threads) for -ptx kernels")
	bufWords := flag.Int("bufwords", 1024, "words allocated per pointer parameter for -ptx kernels")
	obsFlags := obscli.Register()
	flag.Parse()

	if *list {
		for _, name := range workloads.Names() {
			s, _ := workloads.Get(name)
			fmt.Printf("%-24s datasets: %v\n", name, s.Datasets)
		}
		return
	}
	var spec *workloads.Spec
	var ds string
	if *ptxFile == "" {
		var ok bool
		spec, ok = workloads.Get(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (use -list)\n", *workload)
			os.Exit(2)
		}
		ds = *dataset
		if ds == "" {
			ds = spec.DefaultDataset()
		}
		if !spec.HasDataset(ds) {
			fmt.Fprintf(os.Stderr, "workload %s has no dataset %q (have %v)\n", *workload, ds, spec.Datasets)
			os.Exit(2)
		}
	} else {
		spec = ptxFileSpec(*ptxFile, *args, *grid, *block, *bufWords)
		ds = spec.DefaultDataset()
	}
	cfg := gpu.Config()

	ctx := cuda.NewContext(cfg)
	var reg *obs.Registry
	verified := false
	reg, tr, samp := obsFlags.Setup(func() *obs.Stats {
		return runStats(reg, ctx, *workload, ds, gpu.Name, *tool, verified)
	})
	ctx.Device().Metrics = reg
	ctx.Device().Trace = tr
	ctx.Device().PCSamp = samp

	var prog *sass.Program
	var err error
	tr.HostSpan(obs.TidHostCompile, "compile:"+spec.Name, func() {
		prog, err = spec.Compile(ptxas.Options{})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Wire up the selected tool.
	var report func()
	switch *tool {
	case "none":
	case "opcount":
		p := handlers.NewOpCounter(ctx)
		mustInstrument(prog, p.Options(), reg, tr)
		registerHandler(prog, ctx, p.Handler(), reg)
		report = func() {
			t := p.Totals()
			fmt.Printf("opcount: mem=%d wide=%d ctrl=%d sync=%d numeric=%d texture=%d total=%d\n",
				t[handlers.OcMem], t[handlers.OcMemWide], t[handlers.OcControl],
				t[handlers.OcSync], t[handlers.OcNumeric], t[handlers.OcTexture], t[handlers.OcTotal])
		}
	case "branch":
		p := handlers.NewBranchProfiler(ctx)
		mustInstrument(prog, p.Options(), reg, tr)
		registerHandler(prog, ctx, p.Handler(), reg)
		report = func() {
			rows, err := p.Results()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			s, _ := p.Summarize()
			fmt.Printf("branches: static=%d divergent=%d (%.1f%%); dynamic=%d divergent=%d (%.1f%%)\n",
				s.StaticBranches, s.StaticDivergent, s.StaticDivergentPc,
				s.DynamicBranches, s.DynamicDivergent, s.DynDivergentPc)
			for _, r := range rows {
				fmt.Printf("  branch 0x%08x: executed=%d active=%d taken=%d fall=%d divergent=%d\n",
					uint32(r.InsAddr), r.Total, r.Active, r.Taken, r.NotTaken, r.Divergent)
			}
		}
	case "memdiv":
		p := handlers.NewMemDivProfiler(ctx)
		mustInstrument(prog, p.Options(), reg, tr)
		registerHandler(prog, ctx, p.Handler(), reg)
		report = func() {
			m, err := p.Matrix()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			pmf := m.UniqueLinePMF()
			fmt.Printf("memory divergence over %d warp accesses (32B lines):\n", m.TotalAccesses())
			for u, f := range pmf {
				if f > 0.005 {
					fmt.Printf("  %2d unique lines: %5.1f%%\n", u+1, 100*f)
				}
			}
		}
	case "valueprof":
		p := handlers.NewValueProfiler(ctx)
		mustInstrument(prog, p.Options(), reg, tr)
		registerHandler(prog, ctx, p.Handler(), reg)
		report = func() {
			s, err := p.Summarize()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Printf("value profile: dynamic const bits %.0f%%, scalar %.0f%%; static const bits %.0f%%, scalar %.0f%%\n",
				s.DynConstBitsPc, s.DynScalarPc, s.StatConstBitsPc, s.StatScalarPc)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown tool %q\n", *tool)
		os.Exit(2)
	}

	if *disas {
		for _, k := range prog.Kernels {
			fmt.Println(k.Disassemble())
		}
	}

	start := time.Now()
	var res *workloads.Result
	tr.HostSpan(obs.TidHostMain, "run:"+spec.Name, func() {
		res, err = spec.Run(ctx, prog, ds)
	})
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Stdout)
	if res.VerifyErr != nil {
		fmt.Printf("VERIFICATION FAILED: %v\n", res.VerifyErr)
	} else {
		verified = true
		fmt.Println("verification: PASSED")
	}
	fmt.Printf("launches=%d kernel-cycles=%d warp-instrs=%d handler-calls=%d wall=%s\n",
		ctx.Launches(), ctx.TotalKernelCycles, ctx.TotalWarpInstrs, ctx.TotalHandlerCalls,
		wall.Round(time.Millisecond))
	if report != nil {
		report()
	}
	if err := obsFlags.Finish(tr, runStats(reg, ctx, *workload, ds, gpu.Name, *tool, verified), samp); err != nil {
		fmt.Fprintf(os.Stderr, "obs output: %v\n", err)
		os.Exit(1)
	}
}

// runStats assembles the -stats-json / HTTP stats object from the live
// context and registry.
func runStats(reg *obs.Registry, ctx *cuda.Context, workload, dataset, gpu, tool string, verified bool) *obs.Stats {
	s := obs.NewStats(reg)
	s.Workload = workload
	s.Dataset = dataset
	s.GPU = gpu
	s.Tool = tool
	s.Launches = ctx.Launches()
	s.KernelCycles = ctx.TotalKernelCycles
	s.WarpInstrs = ctx.TotalWarpInstrs
	s.HandlerCalls = ctx.TotalHandlerCalls
	s.ScoreboardStalls = ctx.TotalScoreboardStalls
	s.Verified = verified
	return s
}

func mustInstrument(prog *sass.Program, opts sassi.Options, reg *obs.Registry, tr *obs.Tracer) {
	opts.Metrics = reg
	opts.Trace = tr
	if err := sassi.Instrument(prog, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func registerHandler(prog *sass.Program, ctx *cuda.Context, h *sassi.Handler, reg *obs.Registry) {
	rt := sassi.NewRuntime(prog)
	rt.Metrics = reg
	rt.MustRegister(h)
	rt.Attach(ctx.Device())
}

// ptxFileSpec wraps a PTX-like assembly file as an ad-hoc workload: pointer
// parameters get zero-filled device buffers of bufWords words each, scalar
// parameters take values from the comma-separated args list, and the first
// pointer buffer is dumped as the result.
func ptxFileSpec(path, argList string, grid, block, bufWords int) *workloads.Spec {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var scalars []uint64
	if argList != "" {
		for _, tok := range strings.Split(argList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(tok), 0, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -args entry %q: %v\n", tok, err)
				os.Exit(2)
			}
			scalars = append(scalars, v)
		}
	}
	return &workloads.Spec{
		Name:     path,
		Datasets: []string{"file"},
		Build: func() (*ptx.Module, error) {
			return ptx.ParseModule(string(src))
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*workloads.Result, error) {
			res := &workloads.Result{}
			for _, k := range prog.Kernels {
				var launchArgs []uint64
				var firstBuf cuda.DevPtr
				var firstBufSize int
				si := 0
				for _, p := range k.Params {
					if p.Size == 8 {
						buf := ctx.Malloc(uint64(4*bufWords), p.Name)
						if firstBuf == 0 {
							firstBuf, firstBufSize = buf, 4*bufWords
						}
						launchArgs = append(launchArgs, uint64(buf))
						continue
					}
					v := uint64(0)
					if si < len(scalars) {
						v = scalars[si]
						si++
					}
					launchArgs = append(launchArgs, v)
				}
				if _, err := ctx.LaunchKernel(prog, k.Name, sim.LaunchParams{
					Grid: sim.D1(grid), Block: sim.D1(block), Args: launchArgs,
				}); err != nil {
					return nil, err
				}
				if firstBuf != 0 {
					out := make([]byte, firstBufSize)
					if err := ctx.MemcpyDtoH(out, firstBuf); err != nil {
						return nil, err
					}
					res.Output = append(res.Output, out...)
					res.Stdout += fmt.Sprintf("%s: first buffer (%d words):", k.Name, min(8, bufWords))
					vals, _ := ctx.ReadU32(firstBuf, min(8, bufWords))
					for _, v := range vals {
						res.Stdout += fmt.Sprintf(" %#x", v)
					}
					res.Stdout += "\n"
				}
			}
			return res, nil
		},
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
