// Command sassi-cfi runs the control-flow-integrity tooling over one
// workload (or seed-buggy mutant): the static legal-target pass from
// internal/analysis/cfi, the dynamic SASSI shadow-stack checker from
// internal/handlers, or a control-state corruption campaign from
// internal/faults that measures the checker's detection coverage.
//
// Usage:
//
//	sassi-cfi demo.calltree
//	sassi-cfi mutant.cfi-ret-nocall
//	sassi-cfi -static=false parboil.bfs            # dynamic only
//	sassi-cfi -campaign 100 demo.calltree          # corruption campaign
//	sassi-cfi -campaign 100 -assert-detect 0.95 demo.calltree
//	sassi-cfi -list
//
// The exit status is 1 when any CFI violation is reported (statically or
// dynamically) or a campaign assertion fails, 0 when clean, 2 on usage or
// execution errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sassi/internal/analysis"
	"sassi/internal/analysis/cfi"
	"sassi/internal/cuda"
	"sassi/internal/faults"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, checks, prints, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sassi-cfi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	static := fs.Bool("static", true, "run the static CFI pass")
	dynamic := fs.Bool("dynamic", true, "run the workload under the SASSI CFI checker")
	campaign := fs.Int("campaign", 0, "run a control-state corruption campaign with this many injections (disables the other modes)")
	assertDetect := fs.Float64("assert-detect", 0, "campaign mode: fail unless return-address detection meets this rate and the run has no false positives")
	seed := fs.Uint64("seed", 2015, "campaign seed")
	dataset := fs.String("dataset", "", "dataset to run (default: the workload's default)")
	list := fs.Bool("list", false, "list checkable workloads and mutants")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, n := range workloads.Names() {
			fmt.Fprintln(stdout, n)
		}
		for _, n := range workloads.MutantNames() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: sassi-cfi [-static=bool] [-dynamic=bool] [-campaign N] [-dataset name] <workload|mutant>")
		return 2
	}
	name := fs.Arg(0)
	spec, ok := workloads.Get(name)
	if !ok {
		spec, ok = workloads.GetMutant(name)
	}
	if !ok {
		fmt.Fprintf(stderr, "sassi-cfi: unknown workload %q (try -list)\n", name)
		return 2
	}
	ds := *dataset
	if ds == "" {
		ds = spec.DefaultDataset()
	}

	if *campaign > 0 {
		return runCampaign(spec, ds, *campaign, *seed, *assertDetect, stdout, stderr)
	}

	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		fmt.Fprintf(stderr, "sassi-cfi: compile %s: %v\n", name, err)
		return 2
	}

	violated := false
	if *static {
		for _, k := range prog.Kernels {
			cfg, err := sass.BuildCFG(k)
			if err != nil {
				fmt.Fprintf(stderr, "sassi-cfi: %s/%s: cfg: %v\n", name, k.Name, err)
				return 2
			}
			for _, d := range cfi.Check(analysis.NewKernelFacts(cfg)) {
				if d.Sev == analysis.Error {
					violated = true
				}
				fmt.Fprintf(stdout, "static: %s@%04x: %s: %s\n",
					k.Name, sass.InsOffset(d.Instr), d.Sev, d.Msg)
			}
		}
	}

	if *dynamic {
		checker := handlers.NewCFIChecker()
		opts := checker.Options()
		// Mutants are corrupt by construction; the CFI pass itself is the
		// gate, not the instrumentor's verifier.
		opts.Verify = analysis.VerifyOff
		if err := sassi.Instrument(prog, opts); err != nil {
			fmt.Fprintf(stderr, "sassi-cfi: instrument %s: %v\n", name, err)
			return 2
		}
		if err := checker.Prepare(prog); err != nil {
			fmt.Fprintf(stderr, "sassi-cfi: prepare %s: %v\n", name, err)
			return 2
		}
		cfg := sim.MiniGPU()
		cfg.SequentialSMs = true
		// Corrupted control state loves to spin; keep hangs quick.
		cfg.WatchdogWarpInstrs = 1_000_000
		ctx := cuda.NewContext(cfg)
		rt := sassi.NewRuntime(prog)
		rt.MustRegister(checker.Handler())
		rt.Attach(ctx.Device())
		res, err := spec.Run(ctx, prog, ds)
		// A corrupt workload is expected to fault or mis-verify: report,
		// don't fail on it — the violation log is the verdict.
		if err != nil {
			fmt.Fprintf(stdout, "run: %v\n", err)
		} else if res != nil && res.VerifyErr != nil {
			fmt.Fprintf(stdout, "output: %v\n", res.VerifyErr)
		}
		for _, v := range checker.Violations() {
			violated = true
			fmt.Fprintf(stdout, "dynamic: %v\n", v)
		}
		if checker.Dropped > 0 {
			fmt.Fprintf(stdout, "dynamic: (%d further violations dropped)\n", checker.Dropped)
		}
	}

	if violated {
		fmt.Fprintf(stderr, "sassi-cfi: %s: CFI violations reported\n", name)
		return 1
	}
	fmt.Fprintf(stdout, "sassi-cfi: %s: clean\n", name)
	return 0
}

// runCampaign executes a control-state corruption campaign and prints the
// per-class detection coverage.
func runCampaign(spec *workloads.Spec, ds string, injections int, seed uint64, assertDetect float64, stdout, stderr io.Writer) int {
	cfg := sim.MiniGPU()
	cfg.SequentialSMs = true
	c := &faults.ControlCampaign{
		Spec: spec, Dataset: ds,
		Injections: injections, Seed: seed, Config: cfg,
	}
	res, err := c.Run()
	if err != nil {
		fmt.Fprintf(stderr, "sassi-cfi: campaign %s: %v\n", spec.Name, err)
		return 2
	}
	fmt.Fprintf(stdout, "%-12s %6s %5s %9s %8s %6s %7s %7s\n",
		"class", "sites", "runs", "detected", "crashed", "hung", "silent", "masked")
	for cl := 0; cl < int(handlers.NumCtrlClasses); cl++ {
		class := handlers.CtrlClass(cl)
		if res.Sites[cl] == 0 {
			fmt.Fprintf(stdout, "%-12s %6d %5s %9s\n", class, 0, "-", "n/a")
			continue
		}
		fmt.Fprintf(stdout, "%-12s %6d %5d %8.1f%% %7.1f%% %5.1f%% %6.1f%% %6.1f%%\n",
			class, res.Sites[cl], res.ClassTotals[cl],
			100*res.Fraction(class, faults.CtrlDetected),
			100*res.Fraction(class, faults.CtrlCrash),
			100*res.Fraction(class, faults.CtrlHang),
			100*res.Fraction(class, faults.CtrlSilent),
			100*res.Fraction(class, faults.CtrlMasked))
	}
	fmt.Fprintf(stdout, "false positives on the uncorrupted run: %d\n", res.FalsePositives)
	if assertDetect > 0 {
		if res.FalsePositives != 0 {
			fmt.Fprintf(stderr, "sassi-cfi: %s: %d false positives on the uncorrupted run\n",
				spec.Name, res.FalsePositives)
			return 1
		}
		if n := res.ClassTotals[handlers.CtrlRetBitFlip]; n == 0 {
			fmt.Fprintf(stderr, "sassi-cfi: %s: no return-address injections drawn\n", spec.Name)
			return 1
		}
		if rate := res.DetectionRate(handlers.CtrlRetBitFlip); rate < assertDetect {
			fmt.Fprintf(stderr, "sassi-cfi: %s: return-address detection %.1f%% below the %.1f%% floor\n",
				spec.Name, 100*rate, 100*assertDetect)
			return 1
		}
	}
	return 0
}
