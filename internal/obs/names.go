package obs

// Canonical metric names. Producers register under these so the catalogue
// in DESIGN.md, the -stats-json schema, and dashboards agree. Sharded
// counters flatten to "<name>.sm<i>" per shard plus the total under the
// bare name.
const (
	// internal/sim — per-SM sharded, merged order-independently.
	MSimWarpInstrs           = "sim.issue.warp_instrs"
	MSimThreadInstrs         = "sim.issue.thread_instrs"
	MSimInjectedWarpInstrs   = "sim.issue.injected_warp_instrs"
	MSimInjectedThreadInstrs = "sim.issue.injected_thread_instrs"
	MSimHandlerCalls         = "sim.issue.handler_calls"
	MSimCycles               = "sim.cycles"
	MSimBarrierStalls        = "sim.stall.barrier_sweeps"
	MSimScoreboardStalls     = "sim.stall.scoreboard"
	MSimDivergentBranches    = "sim.divergence.branches"
	MSimLaunches             = "sim.launches"
	MSimCTAs                 = "sim.ctas"
	// Launch geometry and per-warp peak, published once per launch from
	// the post-merge goroutine (threads accumulate; the max gauge is
	// refreshed with the latest launch's peak).
	MSimThreads       = "sim.threads"
	MSimMaxWarpInstrs = "sim.issue.max_warp_instrs"

	// internal/mem — device-lifetime gauges, refreshed at kernel exit.
	MMemL1Accesses   = "mem.l1.accesses"
	MMemL1Hits       = "mem.l1.hits"
	MMemL1Misses     = "mem.l1.misses"
	MMemL1Evictions  = "mem.l1.evictions"
	MMemL2Accesses   = "mem.l2.accesses"
	MMemL2Hits       = "mem.l2.hits"
	MMemL2Misses     = "mem.l2.misses"
	MMemL2Evictions  = "mem.l2.evictions"
	MMemDRAMTransact = "mem.dram.transactions"
	MMemGlobalTrans  = "mem.global.transactions"

	// internal/sassi — instrumentation-time counters.
	MSassiSites          = "sassi.instrument.sites"
	MSassiInjectedInstrs = "sassi.instrument.injected_instrs"
	// Per-handler attribution: the handler symbol is appended, e.g.
	// sassi.instrument.injected_instrs.sassi_before_handler.
	MSassiInjectedPrefix    = "sassi.instrument.injected_instrs."
	MSassiSaveRestoreInstrs = "sassi.instrument.save_restore_instrs"
	MSassiKernels           = "sassi.instrument.kernels"
	MSassiCacheHits         = "sassi.compile_cache.hits"
	MSassiCacheMisses       = "sassi.compile_cache.misses"

	// internal/handlers (via sassi.Runtime) — per-tool dispatch counts;
	// the handler symbol is appended: handlers.dispatch.<symbol>.
	MHandlerDispatchPrefix = "handlers.dispatch."
	// Warp-occupancy histogram of dispatches (active lanes per call).
	MHandlerActiveLanes = "handlers.dispatch_active_lanes"

	// internal/obs/pcsamp — PC-sampling profiler, published at launch end
	// (never on the sampling hot path). Samples are period-weighted.
	MPCSampSamples   = "pcsamp.samples"
	MPCSampLaunches  = "pcsamp.launches"
	MPCSampTruncated = "pcsamp.truncated_stacks"

	// internal/faults — campaign progress.
	MFaultsRuns        = "faults.runs"
	MFaultsRunsFailed  = "faults.runs_failed"
	MFaultsWorkers     = "faults.workers"
	MFaultsSitesTotal  = "faults.sites_total"
	MFaultsOutcomePref = "faults.outcome."
	// Injection runs that simulated only the target CTA of the target
	// launch, and those whose attempt to was stopped by the fence and
	// run again over the whole grid.
	MFaultsRunsIsolated = "faults.runs_isolated"
	MFaultsRunsFenced   = "faults.runs_fenced"
)
