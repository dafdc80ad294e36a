// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,fig7 -gpu k10
//	experiments -run fig10 -injections 1000
//	experiments -run cfi -apps demo.calltree -injections 100 -assert-cfi-detect 0.95
//	experiments -run sched -apps parboil.sgemm -candidates 32
//
// Output is the text rendering of each table/figure; EXPERIMENTS.md records
// a reference run next to the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sassi/internal/experiments"
	"sassi/internal/obs"
	"sassi/internal/obscli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, runs the experiments it
// names in a fixed order, prints each one's rendering, and returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "all", "comma list of experiments: table1,fig5,fig7,fig8,table2,fig10,cfi,table3,overhead,sched,pcsamp")
	gpu := obscli.RegisterGPU(fs, "k10")
	injections := fs.Int("injections", 100, "fault injections per app for fig10 and cfi (paper: 1000)")
	seed := fs.Uint64("seed", 2015, "seed of the fig10 and cfi campaigns and the sched sweep")
	apps := fs.String("apps", "", "comma list restricting table2/table3/fig10 to specific workloads")
	workers := fs.Int("workers", 0, "concurrent fig10 injection / sched candidate runs (0 = GOMAXPROCS); results are identical at any value")
	candidates := fs.Int("candidates", 8, "schedule candidates per app for sched (seed 0 heuristic + jittered tie-breaks)")
	cfiDetect := fs.Float64("assert-cfi-detect", 0, "fail unless every cfi app has no false positive, draws return-address injections and detects at least this share of them (0 = no gate)")
	pcsampTop5 := fs.Float64("assert-pcsamp-top5", 0, "fail unless every pcsamp app's top-5 agreement at the default period meets this bound (0 = no gate)")
	obsFlags := obscli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *injections < 1:
		fmt.Fprintf(stderr, "experiments: -injections must be at least 1, got %d\n", *injections)
		return 2
	case *workers < 0:
		fmt.Fprintf(stderr, "experiments: -workers must be 0 (GOMAXPROCS) or more, got %d\n", *workers)
		return 2
	}

	cfg := gpu.Config()
	env := experiments.Default()
	env.Config = cfg
	env.Workers = *workers
	session := obsFlags.Start(func(s *obs.Stats) { s.GPU = gpu.Name })
	env.Cache.Metrics, env.Cache.Trace = session.Metrics, session.Trace
	env.Metrics, env.Trace, env.PCSamp = session.Metrics, session.Trace, session.PCSamp

	var appList []string
	if *apps != "" {
		appList = strings.Split(*apps, ",")
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	failed := false
	step := func(name string, f func() (string, error)) {
		if failed || !all && !want[name] {
			return
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", name, err)
			failed = true
			return
		}
		fmt.Fprintf(stdout, "==== %s (%s) ====\n%s\n", name, time.Since(start).Round(time.Millisecond), out)
	}

	step("table1", func() (string, error) {
		rows, err := experiments.Table1(env)
		if err != nil {
			return "", err
		}
		return experiments.FormatTable1(rows), nil
	})
	step("fig5", func() (string, error) {
		data, err := experiments.Figure5(env)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure5(data), nil
	})
	step("fig7", func() (string, error) {
		rows, err := experiments.Figure7(env)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure7(rows), nil
	})
	step("fig8", func() (string, error) {
		r, err := experiments.Figure8(env)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure8(r), nil
	})
	step("table2", func() (string, error) {
		rows, err := experiments.Table2(env, appList)
		if err != nil {
			return "", err
		}
		return experiments.FormatTable2(rows), nil
	})
	step("fig10", func() (string, error) {
		rows, err := experiments.Figure10(env, appList, *injections, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure10(rows), nil
	})
	step("cfi", func() (string, error) {
		rows, err := experiments.CFICoverage(env, appList, *injections, *seed)
		if err != nil {
			return "", err
		}
		if *cfiDetect > 0 {
			if err := experiments.AssertCFIDetect(rows, *cfiDetect); err != nil {
				return "", err
			}
		}
		return experiments.FormatCFICoverage(rows), nil
	})
	step("table3", func() (string, error) {
		rows, err := experiments.Table3(env, appList)
		if err != nil {
			return "", err
		}
		return experiments.FormatTable3(rows), nil
	})
	// Not part of "all": the schedule autotuner is an on-demand report
	// (it compiles candidate-count variants of every app).
	if want["sched"] {
		step("sched", func() (string, error) {
			rows, err := experiments.SchedTable(env, appList, *candidates, *seed)
			if err != nil {
				return "", err
			}
			return experiments.FormatSchedTable(rows), nil
		})
	}
	// Not part of "all": the PC-sampling accuracy sweep is an on-demand
	// report (it runs each app four extra times, once per sweep period).
	if want["pcsamp"] {
		step("pcsamp", func() (string, error) {
			rows, err := experiments.PCSampReport(env, appList)
			if err != nil {
				return "", err
			}
			if *pcsampTop5 > 0 {
				if err := experiments.AssertPCSampTop5(rows, *pcsampTop5); err != nil {
					return "", err
				}
			}
			return experiments.FormatPCSampReport(rows), nil
		})
	}
	// Not part of "all": the overhead breakdown is an on-demand report.
	if want["overhead"] {
		step("overhead", func() (string, error) {
			rows, err := experiments.OverheadReport(env, appList)
			if err != nil {
				return "", err
			}
			return experiments.FormatOverheadReport(rows), nil
		})
	}
	if failed {
		return 1
	}
	if err := session.Finish(); err != nil {
		fmt.Fprintf(stderr, "obs output: %v\n", err)
		return 1
	}
	return 0
}
