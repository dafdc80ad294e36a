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
//	sassi -workload mutant.cfi-ret-nocall -tool cfi
//	sassi -workload mutant.bfs-frontier -tool racecheck
//
// The cfi tool is the runtime half of control-flow integrity (a shadow
// call and divergence stack audited at every control transfer), racecheck
// the runtime shared-memory race detector; sassi-lint -checks
// cfi,shared-race runs their static halves. -workload also takes the
// seed-buggy mutants -list prints: a mutant compiles without the verify
// post-pass and runs under a 1 000 000-instruction watchdog, since its
// control state may spin. The exit status is 1 when a run fails or the
// cfi or racecheck tool reports a finding, 2 on usage errors. Under cfi a
// failed run is reported but the violation log is the verdict: corrupt
// control flow is expected to fault.
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
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sassi/internal/analysis"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, runs, prints, and returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sassi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available workloads and mutants and exit")
	workload := fs.String("workload", "demo.vecadd", "workload or mutant to run")
	dataset := fs.String("dataset", "", "dataset (default: workload's first)")
	tool := fs.String("tool", "none", "instrumentation: none, "+strings.Join(handlers.ToolNames(), ", "))
	gpu := obscli.RegisterGPU(fs, "k10")
	disas := fs.Bool("disas", false, "print the compiled (and instrumented) SASS")
	ptxFile := fs.String("ptx", "", "compile kernels from a PTX-like assembly file instead of a workload")
	argList := fs.String("args", "", "comma list of scalar kernel arguments for -ptx kernels")
	grid := fs.Int("grid", 1, "grid size (CTAs) for -ptx kernels")
	block := fs.Int("block", 128, "block size (threads) for -ptx kernels")
	bufWords := fs.Int("bufwords", 1024, "words allocated per pointer parameter for -ptx kernels")
	obsFlags := obscli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var toolSpec handlers.ToolSpec
	if *tool != "none" {
		var err error
		if toolSpec, err = handlers.LookupTool(*tool); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *list {
		for _, name := range workloads.Names() {
			s, _ := workloads.Get(name)
			fmt.Fprintf(stdout, "%-24s datasets: %v\n", name, s.Datasets)
		}
		for _, name := range workloads.MutantNames() {
			s, _ := workloads.GetMutant(name)
			fmt.Fprintf(stdout, "%-24s datasets: %v\n", name, s.Datasets)
		}
		return 0
	}
	var spec *workloads.Spec
	var ds string
	mutant := false
	if *ptxFile == "" {
		var ok bool
		spec, ok = workloads.Get(*workload)
		if !ok {
			spec, mutant = workloads.GetMutant(*workload)
			ok = mutant
		}
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q (use -list)\n", *workload)
			return 2
		}
		ds = *dataset
		if ds == "" {
			ds = spec.DefaultDataset()
		}
		if !spec.HasDataset(ds) {
			fmt.Fprintf(stderr, "workload %s has no dataset %q (have %v)\n", *workload, ds, spec.Datasets)
			return 2
		}
	} else {
		var err error
		if spec, err = ptxFileSpec(*ptxFile, *argList, *grid, *block, *bufWords); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		ds = spec.DefaultDataset()
	}
	cfg := gpu.Config()
	compileOpts := ptxas.Options{}
	if mutant {
		// A mutant is corrupt by construction: the tool is the check, not
		// the verifier, and its control state may spin.
		compileOpts.Verify = analysis.VerifyOff
		cfg.WatchdogWarpInstrs = 1_000_000
	}

	ctx := cuda.NewContext(cfg)
	verified := false
	session := obsFlags.Start(func(s *obs.Stats) {
		s.Workload, s.Dataset, s.GPU, s.Tool = *workload, ds, gpu.Name, *tool
		s.Launches = ctx.Launches()
		s.KernelCycles = ctx.TotalKernelCycles
		s.WarpInstrs = ctx.TotalWarpInstrs
		s.HandlerCalls = ctx.TotalHandlerCalls
		s.ScoreboardStalls = ctx.TotalScoreboardStalls
		s.Verified = verified
	})
	reg, tr := session.Metrics, session.Trace
	ctx.Device().Metrics, ctx.Device().Trace, ctx.Device().PCSamp = reg, tr, session.PCSamp

	var prog *sass.Program
	var err error
	tr.HostSpan(obs.TidHostCompile, "compile:"+spec.Name, func() {
		prog, err = spec.Compile(compileOpts)
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var report func() bool
	if toolSpec.New != nil {
		tool := toolSpec.New(ctx)
		report = reporter(tool, prog, stdout, stderr)
		opts := tool.Options()
		opts.Metrics = reg
		opts.Trace = tr
		if mutant {
			opts.Verify = analysis.VerifyOff
		}
		if err := sassi.Instrument(prog, opts); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := handlers.Prepare(tool, prog); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		rt := sassi.NewRuntime(prog)
		rt.Metrics = reg
		rt.MustRegister(tool.Handler())
		rt.Attach(ctx.Device())
	}

	if *disas {
		for _, k := range prog.Kernels {
			fmt.Fprintln(stdout, k.Disassemble())
		}
	}

	start := time.Now()
	var res *workloads.Result
	tr.HostSpan(obs.TidHostMain, "run:"+spec.Name, func() {
		res, err = spec.Run(ctx, prog, ds)
	})
	wall := time.Since(start)
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "run failed: %v\n", err)
		if *tool != "cfi" {
			return 1
		}
	case res.VerifyErr != nil:
		fmt.Fprint(stdout, res.Stdout)
		fmt.Fprintf(stdout, "VERIFICATION FAILED: %v\n", res.VerifyErr)
	default:
		fmt.Fprint(stdout, res.Stdout)
		verified = true
		fmt.Fprintln(stdout, "verification: PASSED")
	}
	fmt.Fprintf(stdout, "launches=%d kernel-cycles=%d warp-instrs=%d handler-calls=%d wall=%s\n",
		ctx.Launches(), ctx.TotalKernelCycles, ctx.TotalWarpInstrs, ctx.TotalHandlerCalls,
		wall.Round(time.Millisecond))
	flagged := report != nil && report()
	if err := session.Finish(); err != nil {
		fmt.Fprintf(stderr, "obs output: %v\n", err)
		return 1
	}
	if flagged {
		fmt.Fprintf(stderr, "sassi: %s: %s reported findings\n", spec.Name, *tool)
		return 1
	}
	return 0
}

// reporter returns the report printed after tool's run, which reports
// whether the tool found a violation or race. prog is the program before
// instrumentation: race sites index its instructions.
func reporter(tool handlers.Tool, prog *sass.Program, stdout, stderr io.Writer) func() bool {
	switch p := tool.(type) {
	case *handlers.OpCounter:
		return func() bool {
			t := p.Totals()
			fmt.Fprintf(stdout, "opcount: mem=%d wide=%d ctrl=%d sync=%d numeric=%d texture=%d total=%d\n",
				t[handlers.OcMem], t[handlers.OcMemWide], t[handlers.OcControl],
				t[handlers.OcSync], t[handlers.OcNumeric], t[handlers.OcTexture], t[handlers.OcTotal])
			return false
		}
	case *handlers.BranchProfiler:
		return func() bool {
			rows, err := p.Results()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return false
			}
			s, _ := p.Summarize()
			fmt.Fprintf(stdout, "branches: static=%d divergent=%d (%.1f%%); dynamic=%d divergent=%d (%.1f%%)\n",
				s.StaticBranches, s.StaticDivergent, s.StaticDivergentPc,
				s.DynamicBranches, s.DynamicDivergent, s.DynDivergentPc)
			for _, r := range rows {
				fmt.Fprintf(stdout, "  branch 0x%08x: executed=%d active=%d taken=%d fall=%d divergent=%d\n",
					uint32(r.InsAddr), r.Total, r.Active, r.Taken, r.NotTaken, r.Divergent)
			}
			return false
		}
	case *handlers.MemDivProfiler:
		return func() bool {
			m, err := p.Matrix()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return false
			}
			pmf := m.UniqueLinePMF()
			fmt.Fprintf(stdout, "memory divergence over %d warp accesses (32B lines):\n", m.TotalAccesses())
			for u, f := range pmf {
				if f > 0.005 {
					fmt.Fprintf(stdout, "  %2d unique lines: %5.1f%%\n", u+1, 100*f)
				}
			}
			return false
		}
	case *handlers.ValueProfiler:
		return func() bool {
			s, err := p.Summarize()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return false
			}
			fmt.Fprintf(stdout, "value profile: dynamic const bits %.0f%%, scalar %.0f%%; static const bits %.0f%%, scalar %.0f%%\n",
				s.DynConstBitsPc, s.DynScalarPc, s.StatConstBitsPc, s.StatScalarPc)
			return false
		}
	case *handlers.CFIChecker:
		return func() bool {
			vs := p.Violations()
			for _, v := range vs {
				fmt.Fprintf(stdout, "cfi: %v\n", v)
			}
			if p.Dropped > 0 {
				fmt.Fprintf(stdout, "cfi: (%d further violations dropped)\n", p.Dropped)
			}
			fmt.Fprintf(stdout, "cfi: %d violation(s)\n", len(vs)+p.Dropped)
			return len(vs)+p.Dropped > 0
		}
	case *handlers.RaceChecker:
		// Race sites index the original kernels; name their opcodes before
		// Instrument rewrites the program in place.
		siteOp := map[int]sass.Opcode{}
		for _, k := range prog.Kernels {
			for i := range k.Instrs {
				if _, seen := siteOp[i]; !seen {
					siteOp[i] = k.Instrs[i].Op
				}
			}
		}
		return func() bool {
			races := p.Races()
			for _, r := range races {
				fmt.Fprintf(stdout, "racecheck: %s@%04x <-> %s@%04x raced (same CTA, same barrier interval, distinct threads)\n",
					siteOp[r.A], sass.InsOffset(r.A), siteOp[r.B], sass.InsOffset(r.B))
			}
			fmt.Fprintf(stdout, "racecheck: %d race(s)\n", len(races))
			return len(races) > 0
		}
	}
	panic(fmt.Sprintf("sassi: no report for tool %T", tool))
}

// ptxFileSpec wraps a PTX-like assembly file as an ad-hoc workload: pointer
// parameters get zero-filled device buffers of bufWords words each, scalar
// parameters take values from the comma-separated args list, and the first
// pointer buffer is dumped as the result.
func ptxFileSpec(path, argList string, grid, block, bufWords int) (*workloads.Spec, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"grid", grid}, {"block", block}, {"bufwords", bufWords}} {
		if f.v < 1 {
			return nil, fmt.Errorf("-%s %d: must be at least 1", f.name, f.v)
		}
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var scalars []uint64
	if argList != "" {
		for _, tok := range strings.Split(argList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(tok), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -args entry %q: %v", tok, err)
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
						buf := ctx.Malloc(uint64(4 * bufWords))
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
	}, nil
}
