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
	"os"
	"path/filepath"
	"strings"
	"time"

	"sassi/internal/difftest"
	"sassi/internal/sim"
)

func main() {
	seed := flag.Uint64("seed", 1, "campaign seed; run i uses splitmix64(seed, i)")
	n := flag.Int("n", 200, "number of generated kernels")
	workers := flag.Int("workers", 0, "concurrent oracle runs (0 = GOMAXPROCS); results are identical at any value")
	handlers := flag.String("handlers", "all", "comma-separated handler tools to check (all: "+strings.Join(difftest.ToolNames(), ",")+")")
	gpu := flag.String("gpu", "mini", "device model: k10, k20, k40, mini")
	outDir := flag.String("out", ".", "directory for minimized .ptx repros of failures")
	noShrink := flag.Bool("no-shrink", false, "report raw failing kernels without minimizing")
	flag.Parse()

	tools, err := difftest.SelectTools(*handlers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
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

	c := &difftest.Campaign{
		Seed: *seed, Runs: *n, Workers: *workers,
		Size: difftest.DefaultSize(), Tools: tools, Cfg: cfg,
		Log: os.Stderr, Shrink: !*noShrink,
	}
	start := time.Now()
	res, err := c.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hitRate := 0.0
	if res.CacheHits+res.CacheMisses > 0 {
		hitRate = 100 * float64(res.CacheHits) / float64(res.CacheHits+res.CacheMisses)
	}
	fmt.Printf("difftest: %d kernels, %d launches, %d tool(s), %s (compile cache: %d hits / %d misses, %.0f%%)\n",
		res.Runs, res.Launches, len(tools), time.Since(start).Round(time.Millisecond),
		res.CacheHits, res.CacheMisses, hitRate)

	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "harness error: %v\n", e)
	}
	for i := range res.Failures {
		cf := &res.Failures[i]
		name := fmt.Sprintf("difftest-fail-seed%#x.ptx", cf.Seed)
		path := filepath.Join(*outDir, name)
		if err := difftest.WriteRepro(path, cf.Prog, cf.Note()); err != nil {
			fmt.Fprintf(os.Stderr, "write repro: %v\n", err)
		} else {
			fmt.Printf("  repro: %s\n", path)
		}
		for _, f := range cf.Failures {
			fmt.Printf("  %s\n", f)
		}
	}
	if len(res.Failures) > 0 || len(res.Errors) > 0 {
		fmt.Printf("FAIL: %d diverging kernel(s), %d harness error(s)\n",
			len(res.Failures), len(res.Errors))
		os.Exit(1)
	}
	fmt.Println("PASS: all kernels bit-identical across execution cells and instrumentation")
}
