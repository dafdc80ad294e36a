package main

import (
	"fmt"

	"sassi/internal/faults"
)

// This file is the benchmark's vocabulary: the workload names, the metric
// names with unit, direction and bound, and nothing else. BENCHMARK.json at
// the repo root repeats these tables for the driver; TestBenchmarkJSON keeps
// the two in step.

// metric describes one reported number. Bound is the share of the base
// median by which an end-to-end metric may worsen before -compare calls it
// worse; exact metrics (bound 0) must repeat bit for bit.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Workload names.
const (
	wlBase    = "base-suite"
	wlTools   = "tools-suite"
	wlCompile = "compile-only"
	wlFI      = "fi-campaign"
)

// workloadInfo is a workload's name and the reason it exists.
type workloadInfo struct{ Name, Why string }

var workloadInfos = []workloadInfo{
	{wlBase, "30 suite programs uninstrumented: sim issue/lane-ALU and mem do ~90% of the work, sassi/handlers/analysis none"},
	{wlTools, "paper case studies I-III on eight programs: injected spill/fill code and handler dispatch dominate"},
	{wlCompile, "no launches: ptx build, ptxas, sass codec, sassi injection and analysis.Verify do all the work, sim none"},
	{wlFI, "case study IV via faults.Campaign: many short instrumented launches, fresh device per run, worker pool"},
}

// End-to-end metrics, the same six on every workload.
const (
	mWall    = "wall_s"
	mAlloc   = "alloc_mb"
	mPeakRSS = "peak_rss_mb"
	mCycles  = "model_mcycles"
	mSetup   = "setup_s"
	mFail    = "fail_share"
)

var endToEnd = []metric{
	{mWall, "s", "lower", 0.25},
	{mAlloc, "MB", "lower", 0.01},
	{mPeakRSS, "MB", "lower", 0.20},
	{mCycles, "Mcycles", "lower", 0},
	{mSetup, "s", "lower", 0.25},
	{mFail, "failed/attempted", "lower", 0},
}

// driverExact names the end-to-end metrics BENCHMARK.json lists under
// per_layer instead: the driver's end_to_end entries must never read 0 and
// carry a relative bound, and these two are exact and legitimately 0
// (model_mcycles where the benchmark cannot read cycles, fail_share always).
var driverExact = map[string]bool{mCycles: true, mFail: true}

// toolNames are the case-study profilers' names, in the paper's order.
var toolNames = func() []string {
	names := make([]string, len(tools))
	for i := range tools {
		names[i] = tools[i].name
	}
	return names
}()

// outcomeNames are the faults.Outcome names, in the paper's order.
var outcomeNames = func() []string {
	names := make([]string, faults.NumOutcomes)
	for i := range names {
		names[i] = faults.Outcome(i).String()
	}
	return names
}()

// perLayer lists every per-layer metric, grouped by the package it measures.
// All are informational: they attribute an end-to-end change, they do not
// gate one.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var out []metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metric{Name: n, Unit: unit, Better: better})
		}
	}
	perTool := func(unit, better, format string) {
		for _, t := range toolNames {
			add(unit, better, fmt.Sprintf(format, t))
		}
	}
	// ptx
	add("s", "lower", "ptx.build_s")
	add("count", "lower", "ptx.instrs")
	// ptxas
	add("s", "lower", "ptxas.compile_s", "ptxas.compile_sched_s", "ptxas.sched_extra_s")
	add("count", "lower", "ptxas.sass_instrs")
	add("us", "lower", "ptxas.us_per_instr")
	add("MB", "lower", "ptxas.alloc_mb")
	// sass
	add("s", "lower", "sass.codec_s")
	add("B", "lower", "sass.bytes")
	// sassi (inject)
	perTool("s", "lower", "sassi.inject_%s_s")
	perTool("count", "lower", "sassi.sites_%s")
	perTool("ratio", "lower", "sassi.expansion_%s")
	// analysis
	add("s", "lower", "analysis.verify_base_s", "analysis.verify_branch_s", "analysis.verify_memdiv_s")
	add("us", "lower", "analysis.verify_us_per_instr")
	add("MB", "lower", "analysis.verify_alloc_mb")
	// cuda
	add("s", "lower", "cuda.context_s", "cuda.host_s")
	add("count", "lower", "cuda.launches")
	// sim
	add("s", "lower", "sim.launch_s")
	add("count", "lower", "sim.warp_instrs", "sim.thread_instrs")
	add("M/s", "higher", "sim.mwips")
	add("ns", "lower", "sim.ns_per_warp_instr")
	add("count", "lower", "sim.model_cycles", "sim.global_transactions", "sim.scoreboard_stalls")
	add("kB", "lower", "sim.alloc_kb_per_launch")
	add("count", "lower", "sim.allocs_per_launch")
	add("ratio", "higher", "sim.gomaxprocs_speedup")
	// mem
	add("s", "lower", "mem.replay_s")
	add("count", "lower", "mem.replay_accesses")
	add("ratio", "higher", "mem.replay_hit_rate")
	// sassi (runtime) + device
	perTool("s", "lower", "sassi.injected_%s_s")
	perTool("count", "lower", "sim.injected_warp_instrs_%s")
	// handlers
	perTool("s", "lower", "handlers.body_%s_s")
	perTool("count", "lower", "handlers.calls_%s")
	perTool("us", "lower", "handlers.us_per_call_%s")
	perTool("s", "lower", "handlers.collect_%s_s")
	// sassi (Table 3)
	perTool("ratio", "lower", "sassi.t_ratio_%s")
	perTool("ratio", "lower", "sassi.k_ratio_%s")
	// faults
	add("s", "lower", "faults.campaign_s")
	add("count", "higher", "faults.runs")
	add("1/s", "higher", "faults.runs_per_s")
	add("s", "lower", "faults.fixed_s")
	add("ms", "lower", "faults.per_run_ms")
	for _, o := range outcomeNames {
		add("count", "lower", "faults.outcome_"+o)
	}
	add("ratio", "higher", "faults.workers_speedup")
	// bench
	add("ratio", "lower", "bench.trace_overhead")
	add("count", "higher", "bench.gomaxprocs", "bench.iterations")
	add("ratio", "higher", "bench.span_coverage")
	return out
}
