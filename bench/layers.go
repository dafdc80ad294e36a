package main

// This file turns the spans and counters of a traced run into the named
// per-layer metrics. A metric is the median over the traced iterations of
// one iteration's total unless its unit says otherwise; the decomposition
// figures are medians over the repetitions of their pass.

// medianOf applies f to each pass and returns the median.
func medianOf(ps []*passTotals, f func(*passTotals) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// layerMetrics computes every per-layer metric that spans alone decide; the
// caller adds the few that need the untraced walls. Metrics a workload
// cannot produce stay 0.
func layerMetrics(iters []*passTotals, decomp map[string][]*passTotals) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, pm := range perLayer {
		m[pm.Name] = 0
	}
	total := func(ps []*passTotals, key string) float64 {
		return medianOf(ps, func(p *passTotals) float64 { return p.Total[key] })
	}
	self := func(ps []*passTotals, key string) float64 {
		return medianOf(ps, func(p *passTotals) float64 { return p.Self[key] })
	}
	count := func(ps []*passTotals, key string) float64 {
		return medianOf(ps, func(p *passTotals) float64 { return p.Counts[key] })
	}
	bytes := func(ps []*passTotals, keys ...string) float64 {
		return medianOf(ps, func(p *passTotals) float64 {
			n := uint64(0)
			for _, k := range keys {
				n += p.Bytes[k]
			}
			return float64(n)
		})
	}

	// ptx, ptxas, sass
	m["ptx.build_s"] = total(iters, "ptx.build")
	m["ptx.instrs"] = count(iters, "ptx.instrs")
	m["ptxas.compile_s"] = total(iters, "ptxas.compile")
	m["ptxas.compile_sched_s"] = total(iters, "ptxas.compile_sched")
	if m["ptxas.compile_sched_s"] > 0 {
		// The scheduler's cost: the same modules compiled with it on and off.
		m["ptxas.sched_extra_s"] = m["ptxas.compile_sched_s"] - total(iters, "ptxas.compile@base")
	}
	m["ptxas.sass_instrs"] = count(iters, "ptxas.sass_instrs")
	m["ptxas.us_per_instr"] = ratio(m["ptxas.compile_s"]*1e6, m["ptxas.sass_instrs"])
	m["ptxas.alloc_mb"] = bytes(iters, "ptxas.compile", "ptxas.compile_sched") / 1e6
	m["sass.codec_s"] = total(iters, "sass.codec")
	m["sass.bytes"] = count(iters, "sass.bytes")

	// analysis
	m["analysis.verify_base_s"] = total(iters, "analysis.verify@base")
	m["analysis.verify_branch_s"] = total(iters, "analysis.verify@branch")
	m["analysis.verify_memdiv_s"] = total(iters, "analysis.verify@memdiv")
	m["analysis.verify_us_per_instr"] = ratio(total(iters, "analysis.verify")*1e6, count(iters, "analysis.verified_instrs"))
	m["analysis.verify_alloc_mb"] = bytes(iters, "analysis.verify") / 1e6

	// cuda, sim
	launches := count(iters, "cuda.launches")
	m["cuda.context_s"] = total(iters, "cuda.context")
	m["cuda.host_s"] = self(iters, "cuda.run")
	m["cuda.launches"] = launches
	m["sim.launch_s"] = total(iters, "sim.launch")
	m["sim.warp_instrs"] = count(iters, "sim.warp_instrs")
	m["sim.thread_instrs"] = count(iters, "sim.thread_instrs")
	m["sim.mwips"] = ratio(m["sim.warp_instrs"]/1e6, m["sim.launch_s"])
	m["sim.ns_per_warp_instr"] = ratio(m["sim.launch_s"]*1e9, m["sim.warp_instrs"])
	m["sim.model_cycles"] = count(iters, "sim.model_cycles")
	m["sim.global_transactions"] = count(iters, "sim.global_transactions")
	m["sim.scoreboard_stalls"] = count(iters, "sim.scoreboard_stalls")
	m["sim.alloc_kb_per_launch"] = ratio(bytes(iters, "sim.launch")/1e3, launches)
	m["sim.allocs_per_launch"] = ratio(medianOf(iters, func(p *passTotals) float64 { return float64(p.Allocs["sim.launch"]) }), launches)

	// mem
	if replay := decomp[passReplay]; len(replay) > 0 {
		m["mem.replay_s"] = total(replay, "mem.replay")
		m["mem.replay_accesses"] = count(replay, "mem.replay_accesses")
		m["mem.replay_hit_rate"] = ratio(count(replay, "mem.replay_hits"), m["mem.replay_accesses"])
	}

	// sassi, handlers: per tool. Launch time splits three ways by running
	// the same programs uninstrumented, with injected code but an empty
	// handler body, and with the real handler.
	plain, noop := decomp[passUninstrumented], decomp[passNoop]
	for _, t := range toolNames {
		at := func(key string) string { return key + "@" + t }
		m["sassi.inject_"+t+"_s"] = total(iters, at("sassi.inject"))
		m["sassi.sites_"+t] = count(iters, at("sassi.sites"))
		m["sassi.expansion_"+t] = ratio(count(iters, at("sassi.instrs_after")), count(iters, at("sassi.instrs_before")))
		m["sim.injected_warp_instrs_"+t] = count(iters, at("sim.injected_warp_instrs"))
		m["handlers.calls_"+t] = count(iters, at("sim.handler_calls"))
		m["handlers.collect_"+t+"_s"] = total(iters, at("handlers.collect"))
		if len(plain) == 0 || len(noop) == 0 {
			continue
		}
		full, empty, none := total(iters, at("sim.launch")), total(noop, at("sim.launch")), total(plain, at("sim.launch"))
		m["sassi.injected_"+t+"_s"] = empty - none
		m["handlers.body_"+t+"_s"] = full - empty
		m["handlers.us_per_call_"+t] = ratio((full-empty)*1e6, m["handlers.calls_"+t])
		m["sassi.t_ratio_"+t] = ratio(total(iters, at("bench.op")), total(plain, at("bench.op")))
		m["sassi.k_ratio_"+t] = ratio(count(iters, at("sim.model_cycles")), count(plain, at("sim.model_cycles")))
	}

	// faults
	m["faults.campaign_s"] = total(iters, "faults.campaign")
	m["faults.runs"] = count(iters, "faults.runs")
	m["faults.runs_per_s"] = ratio(m["faults.runs"], m["faults.campaign_s"])
	for _, o := range outcomeNames {
		m["faults.outcome_"+o] = count(iters, "faults.outcome_"+o)
	}
	if one := decomp[passOneInjection]; len(one) > 0 {
		m["faults.fixed_s"] = total(one, "faults.campaign")
		m["faults.per_run_ms"] = ratio((m["faults.campaign_s"]-m["faults.fixed_s"])*1e3, m["faults.runs"]-count(one, "faults.runs"))
	}
	if serial := decomp[passOneWorker]; len(serial) > 0 {
		m["faults.workers_speedup"] = ratio(total(serial, "faults.campaign"), m["faults.campaign_s"])
	}

	// bench: the share of an iteration spent inside calls into the layers,
	// the rest being the benchmark's own bookkeeping between them.
	m["bench.span_coverage"] = medianOf(iters, func(p *passTotals) float64 {
		own := p.Self["bench.iteration"] + p.Self["bench.op"]
		return ratio(p.Wall-own, p.Wall)
	})
	return m
}

// spanSummaries folds every recorded span into one summary per name and per
// "name@tag".
func spanSummaries(r *recorder) map[string]*summary {
	out := map[string]*summary{}
	self := selfTimes(r.spans, 0)
	for i := range r.spans {
		s := &r.spans[i]
		for _, k := range s.keys(s.Name) {
			sum := out[k]
			if sum == nil {
				sum = &summary{}
				out[k] = sum
			}
			sum.add(s.dur().Seconds(), self[i].Seconds(), s.Bytes, s.Allocs)
		}
	}
	return out
}
