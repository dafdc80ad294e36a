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
	"io"
	"os"
	"time"

	"sassi/internal/faults"
	"sassi/internal/obs"
	"sassi/internal/obscli"
	"sassi/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, runs the campaign, prints
// its outcome histogram, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sassi-fi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "rodinia.kmeans", "workload to inject into")
	dataset := fs.String("dataset", "", "dataset (default: workload's first)")
	n := fs.Int("n", 100, "number of injection runs (paper: 1000)")
	seed := fs.Uint64("seed", 2015, "site-selection seed")
	gpu := obscli.RegisterGPU(fs, "k20")
	workers := fs.Int("workers", 0, "concurrent injection runs (0 = GOMAXPROCS); results are identical at any value")
	obsFlags := obscli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *n < 1:
		fmt.Fprintf(stderr, "sassi-fi: -n must be at least 1, got %d\n", *n)
		return 2
	case *workers < 0:
		fmt.Fprintf(stderr, "sassi-fi: -workers must be 0 (GOMAXPROCS) or more, got %d\n", *workers)
		return 2
	}

	spec, ok := workloads.Get(*workload)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
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
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "campaign: %s (%s), %d injections over %d candidate sites, %s\n",
		res.Workload, res.Dataset, res.Total, res.SitesTotal, time.Since(start).Round(time.Millisecond))
	for o := 0; o < faults.NumOutcomes; o++ {
		oc := faults.Outcome(o)
		fmt.Fprintf(stdout, "  %-18s %5d (%5.1f%%)\n", oc.String()+":", res.Counts[o], 100*res.Fraction(oc))
	}
	if err := session.Finish(); err != nil {
		fmt.Fprintf(stderr, "obs output: %v\n", err)
		return 1
	}
	return 0
}
