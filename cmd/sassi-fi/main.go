// Command sassi-fi runs a Case Study IV error-injection campaign against
// one workload: count the injection space during a golden execution,
// stochastically select sites, flip single bits of architectural state, and
// classify each run's outcome against the golden execution.
//
// Usage:
//
//	sassi-fi -workload rodinia.kmeans -n 1000
//	sassi-fi -workload parboil.bfs -dataset UT -n 200 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sassi/internal/faults"
	"sassi/internal/obs"
	"sassi/internal/obscli"
	"sassi/internal/workloads"
)

func main() {
	workload := flag.String("workload", "rodinia.kmeans", "workload to inject into")
	dataset := flag.String("dataset", "", "dataset (default: workload's first)")
	n := flag.Int("n", 100, "number of injection runs (paper: 1000)")
	seed := flag.Uint64("seed", 2015, "site-selection seed")
	gpu := obscli.RegisterGPU(flag.CommandLine, "k20")
	workers := flag.Int("workers", 0, "concurrent injection runs (0 = GOMAXPROCS); results are identical at any value")
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()

	spec, ok := workloads.Get(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	ds := *dataset
	if ds == "" {
		ds = spec.DefaultDataset()
	}
	cfg := gpu.Config()

	c := &faults.Campaign{
		Spec: spec, Dataset: ds,
		Injections: *n, Seed: *seed, Config: cfg,
		Workers: *workers,
	}
	session := obsFlags.Start(func(s *obs.Stats) {
		s.Workload, s.Dataset, s.GPU, s.Tool = *workload, ds, gpu.Name, "errorinj"
	})
	c.Metrics, c.Trace, c.PCSamp = session.Metrics, session.Trace, session.PCSamp
	start := time.Now()
	res, err := c.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("campaign: %s (%s), %d injections over %d candidate sites, %s\n",
		res.Workload, res.Dataset, res.Total, res.SitesTotal, time.Since(start).Round(time.Millisecond))
	for o := 0; o < faults.NumOutcomes; o++ {
		oc := faults.Outcome(o)
		fmt.Printf("  %-18s %5d (%5.1f%%)\n", oc.String()+":", res.Counts[o], 100*res.Fraction(oc))
	}
	if err := session.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "obs output: %v\n", err)
		os.Exit(1)
	}
}
