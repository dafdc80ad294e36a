// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,fig7 -gpu k10
//	experiments -run fig10 -injections 1000
//
// Output is the text rendering of each table/figure; EXPERIMENTS.md records
// a reference run next to the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sassi/internal/experiments"
	"sassi/internal/obs"
	"sassi/internal/obscli"
	"sassi/internal/sim"
)

func main() {
	runList := flag.String("run", "all", "comma list of experiments: table1,fig5,fig7,fig8,table2,fig10,cfi,table3,overhead,sched,pcsamp")
	gpu := flag.String("gpu", "k10", "device model: k10, k20, k40, mini")
	injections := flag.Int("injections", 100, "fault injections per app for fig10 and cfi (paper: 1000)")
	seed := flag.Uint64("seed", 2015, "campaign seed for fig10 and cfi")
	apps := flag.String("apps", "", "comma list restricting table2/table3/fig10 to specific workloads")
	workers := flag.Int("workers", 0, "concurrent fig10 injection / sched candidate runs (0 = GOMAXPROCS); results are identical at any value")
	candidates := flag.Int("candidates", 8, "schedule candidates per app for sched (seed 0 heuristic + jittered tie-breaks)")
	pcsampTop5 := flag.Float64("assert-pcsamp-top5", 0, "fail unless every pcsamp app's top-5 agreement at the default period meets this bound (0 = no gate)")
	obsFlags := obscli.Register()
	flag.Parse()

	var cfg sim.Config
	switch *gpu {
	case "k10":
		cfg = sim.KeplerK10()
	case "k20":
		cfg = sim.KeplerK20()
	case "k40":
		cfg = sim.KeplerK40()
	case "mini":
		cfg = sim.MiniGPU()
	default:
		fmt.Fprintf(os.Stderr, "unknown gpu %q\n", *gpu)
		os.Exit(2)
	}
	env := experiments.Default()
	env.Config = cfg
	env.Workers = *workers
	var reg *obs.Registry
	reg, tr, samp := obsFlags.Setup(func() *obs.Stats {
		s := obs.NewStats(reg)
		s.GPU = *gpu
		return s
	})
	env.Cache.Metrics = reg
	env.Cache.Trace = tr
	env.Metrics = reg
	env.Trace = tr
	env.PCSamp = samp

	var appList []string
	if *apps != "" {
		appList = strings.Split(*apps, ",")
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	step := func(name string, f func() (string, error)) {
		if !all && !want[name] {
			return
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%s) ====\n%s\n", name, time.Since(start).Round(time.Millisecond), out)
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
			rows, err := experiments.OverheadReport(env, appList, nil)
			if err != nil {
				return "", err
			}
			return experiments.FormatOverheadReport(rows), nil
		})
	}
	stats := obs.NewStats(reg)
	stats.GPU = *gpu
	if err := obsFlags.Finish(tr, stats, samp); err != nil {
		fmt.Fprintf(os.Stderr, "obs output: %v\n", err)
		os.Exit(1)
	}
}
