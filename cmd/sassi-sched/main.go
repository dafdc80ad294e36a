// Command sassi-sched autotunes SASS instruction schedules with the
// simulator in the loop: each workload is compiled under N tie-break
// seeds of the post-RA list scheduler, every candidate is certified by
// the static `schedule` verifier check and gated on bit-equal output
// against the unscheduled build, and the candidate with the fewest
// simulated cycles wins. With -disasm it prints the winning schedule's
// SASS next to the baseline for inspection.
//
// Usage:
//
//	sassi-sched                                  # default app list
//	sassi-sched -apps parboil.sgemm -candidates 32
//	sassi-sched -apps parboil.bfs -workers 8 -seed 7
//	sassi-sched -apps parboil.sgemm -disasm
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sassi/internal/experiments"
	"sassi/internal/obscli"
	"sassi/internal/ptxas"
	"sassi/internal/workloads"
)

func main() {
	apps := flag.String("apps", "", "comma list of workloads (default: the sched experiment set: "+
		strings.Join(experiments.SchedApps(), ",")+")")
	candidates := flag.Int("candidates", 8, "schedules evaluated per app (seed 0 heuristic + jittered tie-breaks)")
	seed := flag.Uint64("seed", 2015, "sweep seed; candidate i uses splitmix64(seed, i)")
	workers := flag.Int("workers", 0, "concurrent candidate evaluations (0 = GOMAXPROCS); results are identical at any value")
	gpu := obscli.RegisterGPU("k10")
	disasm := flag.Bool("disasm", false, "also print baseline vs winning-schedule disassembly per app")
	flag.Parse()

	cfg := gpu.Config()
	env := experiments.Default()
	env.Config = cfg
	env.Workers = *workers

	var appList []string
	if *apps != "" {
		appList = strings.Split(*apps, ",")
	}
	rows, err := experiments.SchedTable(env, appList, *candidates, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(experiments.FormatSchedTable(rows))

	if *disasm {
		for _, r := range rows {
			if err := printDisasm(r); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// printDisasm shows the unscheduled and winning-schedule SASS side by
// side (sequentially — kernels are long; a textual diff tool does the
// rest).
func printDisasm(r experiments.SchedRow) error {
	spec, ok := workloads.Get(r.App)
	if !ok {
		return fmt.Errorf("unknown workload %q", r.App)
	}
	base, err := spec.Compile(ptxas.Options{})
	if err != nil {
		return err
	}
	sched, err := spec.Compile(ptxas.Options{Schedule: true, SchedSeed: r.BestSeed})
	if err != nil {
		return err
	}
	fmt.Printf("==== %s: baseline ====\n", r.App)
	for _, k := range base.Kernels {
		fmt.Println(k.Disassemble())
	}
	fmt.Printf("==== %s: scheduled (seed %#x) ====\n", r.App, r.BestSeed)
	for _, k := range sched.Kernels {
		fmt.Println(k.Disassemble())
	}
	return nil
}
