// Command bench is the repository's benchmark: four workloads that push
// programs through the pipeline (PTX build, ptxas, SASSI injection,
// verifier, simulated launch, result collection), six end-to-end metrics
// that are the same on every workload, and per-layer metrics taken from
// spans the benchmark records around its own calls into each package.
// README.md in this directory defines every name.
//
//	go run -C bench sassi/bench -workload base-suite
//	go run -C bench sassi/bench -workload all -trace 1 -json out.json
//	go run -C bench sassi/bench -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// processStart is as close to process start as Go code gets; setup_s of the
// first workload counts from it.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload `name`, or all")
	seed := fs.Uint64("seed", 1, "seed: orders the operations of an iteration")
	seconds := fs.Float64("seconds", 15, "how long the timed iterations run")
	iters := fs.Int("iters", 0, "run exactly this many timed iterations instead of -seconds")
	traceArg := fs.String("trace", "0", "0: untraced run; 1: traced run (per-layer metrics); a `file` name: traced run that also writes Chrome trace-event JSON there")
	jsonPath := fs.String("json", "", "write full results (samples, span summaries) to `file`, the input of -compare")
	list := fs.Bool("list", false, "print workloads and metric names")
	cmp := fs.Bool("compare", false, "compare two -json files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList()
		return 0
	case *cmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1))
	case *workload == "" || fs.NArg() != 0:
		fs.Usage()
		return 2
	}

	// One client, at most two CPUs of load: the sizing host has two, and a
	// number taken at GOMAXPROCS=64 would not compare with one taken there.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	var rec *recorder
	if *traceArg != "0" {
		rec = newRecorder()
	}
	var results []*result
	failed := false
	started := processStart
	for i, name := range names {
		if i > 0 {
			started = time.Now()
		}
		res, err := measure(name, *seed, fullSizes, limits{seconds: *seconds, iterations: *iters}, rec, started)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		results = append(results, res)
		res.print(os.Stdout)
		failed = failed || res.Failed > 0
	}
	if *jsonPath != "" {
		if err := writeResultFile(*jsonPath, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if rec != nil && *traceArg != "1" {
		if err := rec.writeChromeTrace(*traceArg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	// The driver reads the last line of standard output.
	for _, res := range results {
		fmt.Println(res.driverLine())
	}
	if failed {
		return 1
	}
	return 0
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloadInfos {
		fmt.Printf("  %-13s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (name unit better bound):")
	for _, m := range endToEnd {
		fmt.Printf("  %-14s %-17s %-6s %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("per-layer metrics (name unit better):")
	for _, m := range perLayer {
		fmt.Printf("  %-32s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}

func runCompare(pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if compare(os.Stdout, a, b) > 0 {
		return 1
	}
	return 0
}
