package sim

import (
	"sassi/internal/obs/pcsamp"
	"sassi/internal/sass"
)

// takeSample records one PC sample for the instruction whose issue+stall
// window just crossed the sampling boundary. The weight is the number of
// period boundaries the window covered, so long-latency instructions are
// charged all the cycles they consumed — at period 1 every instruction
// samples with weight cost+stall, i.e. exact cycle attribution.
//
// Determinism: st.cycles and st.sampNext are per-SM state advanced only
// by that SM's goroutine in program order, so which instruction samples,
// with what weight and reason, is a pure function of the program and the
// period — never of goroutine scheduling.
func (e *engine) takeSample(st *smShard, w *Warp, pc int, in *sass.Instruction, nexec, cost int, stall, divBefore uint64) {
	n := (st.cycles-st.sampNext)/e.sampPeriod + 1
	st.sampNext += n * e.sampPeriod

	// Classify by where the sampled window's cycles went. The window is
	// cost+stall: for a memory op whose dynamic transaction cost dominates
	// its operand wait, charge the memory system; otherwise an actual
	// scoreboard stall beats the instruction's class, and a divergence
	// event this step produced is reported only for otherwise-unstalled
	// instructions.
	var reason pcsamp.Reason
	dynCost := uint64(cost - issueCost(in)) // memory transaction / handler body add-on
	switch {
	case in.Op == sass.OpBAR:
		reason = pcsamp.ReasonBarrier
	case sass.IsMemoryOp(in.Op) && dynCost >= stall:
		reason = pcsamp.ReasonMemory
	case stall > 0:
		reason = pcsamp.ReasonScoreboard
	case sass.IsMemoryOp(in.Op):
		reason = pcsamp.ReasonMemory
	case st.divergentBranches != divBefore:
		reason = pcsamp.ReasonDivergence
	}

	// Launch-global warp id, matching the MemAccess convention.
	warp := int32(w.CTA.Index*e.warpsPerCTA + w.IDinCTA)
	st.samp.Record(int32(pc), warp, uint16(nexec), reason, uint32(n), w.CallStack)
}

// attachSampler wires a device sampler into the launch engine: per-SM
// buffers into the shards and the first boundary one period out.
func (e *engine) attachSampler(s *pcsamp.Sampler, k *sass.Kernel, threadsPerCTA int) {
	e.sampPeriod = s.Period()
	e.warpsPerCTA = (threadsPerCTA + WarpSize - 1) / WarpSize
	e.samp = s.LaunchBegin(k, len(e.sms))
	for i := range e.sms {
		e.sms[i].samp = e.samp.SMs[i]
		e.sms[i].sampNext = e.sampPeriod
	}
}
