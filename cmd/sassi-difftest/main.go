// Command sassi-difftest runs a differential-testing campaign: generate
// random kernels from a seed, execute each one uninstrumented and under
// every selected SASSI handler tool, on the reference interpreter and on
// the default core under both SM dispatch modes, and compare final
// architectural state. Any divergence is
// minimized by the shrinker and written out as a standalone .ptx repro.
//
// Usage:
//
//	sassi-difftest -seed 1 -n 200
//	sassi-difftest -seed 7 -n 1000 -handlers branch,memdiv -workers 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sassi/internal/difftest"
	"sassi/internal/handlers"
	"sassi/internal/obscli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, runs the campaign, writes
// a repro of each failure, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sassi-difftest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "campaign seed; run i uses splitmix64(seed, i)")
	n := fs.Int("n", 200, "number of generated kernels")
	workers := fs.Int("workers", 0, "concurrent oracle runs (0 = GOMAXPROCS); results are identical at any value")
	toolList := fs.String("handlers", "all", "comma-separated handler tools to check (all: "+strings.Join(handlers.ToolNames(), ",")+")")
	gpu := obscli.RegisterGPU(fs, "mini")
	outDir := fs.String("out", ".", "directory for minimized .ptx repros of failures")
	noShrink := fs.Bool("no-shrink", false, "report raw failing kernels without minimizing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *n < 1:
		fmt.Fprintf(stderr, "sassi-difftest: -n must be at least 1, got %d\n", *n)
		return 2
	case *workers < 0:
		fmt.Fprintf(stderr, "sassi-difftest: -workers must be 0 (GOMAXPROCS) or more, got %d\n", *workers)
		return 2
	}

	tools, err := handlers.SelectTools(*toolList)
	if err != nil {
		fmt.Fprintln(stderr, "sassi-difftest:", err)
		return 2
	}
	cfg := gpu.Config()

	c := &difftest.Campaign{
		Seed: *seed, Runs: *n, Workers: *workers,
		Size: difftest.DefaultSize(), Tools: tools, Cfg: cfg,
		Log: stderr, Shrink: !*noShrink,
	}
	start := time.Now()
	res, err := c.Run()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	hitRate := 0.0
	if res.CacheHits+res.CacheMisses > 0 {
		hitRate = 100 * float64(res.CacheHits) / float64(res.CacheHits+res.CacheMisses)
	}
	fmt.Fprintf(stdout, "difftest: %d kernels, %d launches, %d tool(s), %s (compile cache: %d hits / %d misses, %.0f%%)\n",
		res.Runs, res.Launches, len(tools), time.Since(start).Round(time.Millisecond),
		res.CacheHits, res.CacheMisses, hitRate)

	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "harness error: %v\n", e)
	}
	for i := range res.Failures {
		cf := &res.Failures[i]
		name := fmt.Sprintf("difftest-fail-seed%#x.ptx", cf.Seed)
		path := filepath.Join(*outDir, name)
		if err := difftest.WriteRepro(path, cf.Prog, cf.Note()); err != nil {
			fmt.Fprintf(stderr, "write repro: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "  repro: %s\n", path)
		}
		for _, f := range cf.Failures {
			fmt.Fprintf(stdout, "  %s\n", f)
		}
	}
	if len(res.Failures) > 0 || len(res.Errors) > 0 {
		fmt.Fprintf(stdout, "FAIL: %d diverging kernel(s), %d harness error(s)\n",
			len(res.Failures), len(res.Errors))
		return 1
	}
	fmt.Fprintln(stdout, "PASS: all kernels bit-identical across execution cells and instrumentation")
	return 0
}
