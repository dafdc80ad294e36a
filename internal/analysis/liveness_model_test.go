package analysis

// The model for Liveness: the implementation it replaced (sass.ComputeLiveness
// and its helpers), kept verbatim but for package qualifiers and names and
// the rule that a JCAL reads its handler argument registers. It
// restates the def/use, may-assigned and predicated-merge rules with two
// private fixpoints of its own, so an agreement with Liveness is evidence
// about the shared regspace helpers and Solve, not a tautology.
// TestLivenessMatchesModel and FuzzVerify hold Liveness to it.

import (
	"fmt"

	"sassi/internal/sass"
)

// modelLiveInfo holds the per-instruction liveness results for a kernel.
type modelLiveInfo struct {
	// LiveIn[i] is the set of GPRs live immediately before instruction i.
	LiveIn []sass.RegSet
	// PredLiveIn[i] is the set of predicate registers live before i.
	PredLiveIn []sass.PredSet
	// CCLiveIn[i] reports whether the condition code is live before i.
	CCLiveIn []bool
}

// instrDefsUses computes the def and use sets of one instruction. A
// predicated instruction's definition is treated as a partial def (the old
// value survives in inactive threads), so guarded defs do not kill — and
// the merged-in old value counts as a use, but only when the register may
// actually have been assigned on some path to this instruction (maybeR /
// maybeP / maybeCC). Without that refinement, an if-converted body's
// temporaries — first written under a predicate — would appear live all
// the way back to kernel entry, and every instrumentation site before
// them would pointlessly spill garbage. Nil maybe-sets mean "anything may
// be assigned" (fully conservative).
func instrDefsUses(in *sass.Instruction, maybeR *sass.RegSet, maybeP sass.PredSet, maybeCC bool) (def, use sass.RegSet, pdef, puse sass.PredSet, ccDef, ccUse bool) {
	for _, r := range in.GPRSrcs() {
		use.Add(r)
	}
	for _, r := range in.GPRDsts() {
		if r == sass.RZ {
			continue
		}
		if in.Guard.IsAlways() {
			def.Add(r)
		} else if maybeR == nil || maybeR.Has(r) {
			// Partial def: conservatively also a use (merge semantics) —
			// unless no path has ever assigned r, in which case the merge
			// reads garbage on every lane and no correct program depends
			// on it.
			use.Add(r)
		}
	}
	for _, p := range in.AppendPredSrcs(nil) {
		puse.Add(p)
	}
	for _, p := range in.PredDsts() {
		if in.Guard.IsAlways() {
			pdef.Add(p)
		} else if maybeP.Has(p) {
			puse.Add(p)
		}
	}
	if in.Mods.SetCC {
		ccDef = in.Guard.IsAlways()
		if !ccDef && maybeCC {
			ccUse = true
		}
	}
	if in.Mods.X {
		ccUse = true
	}
	// SP is implicitly live throughout any kernel that has a stack; callers
	// that care add it explicitly. A JCAL reads its handler arguments
	// (R4..R7): a later instrumentation pass must keep them.
	if in.Op == sass.OpJCAL {
		for r := uint8(sass.JCALArg0); r < sass.JCALArg1+2; r++ {
			use.Add(r)
		}
	}
	return
}

// maybeAssignedAt computes, per instruction, the registers that may have
// been assigned (by any definition, predicated or not) on at least one
// path from kernel entry — a forward may-analysis. The stack pointer is
// ABI-initialized and counts as assigned at entry.
func maybeAssignedAt(cfg *sass.CFG) (regs []sass.RegSet, preds []sass.PredSet, cc []bool) {
	k := cfg.Kernel
	n := len(k.Instrs)
	regs = make([]sass.RegSet, n)
	preds = make([]sass.PredSet, n)
	cc = make([]bool, n)
	nb := len(cfg.Blocks)
	// Per-block gen (every def in the block) and the block-in fixpoint.
	genR := make([]sass.RegSet, nb)
	genP := make([]sass.PredSet, nb)
	genCC := make([]bool, nb)
	addDefs := func(in *sass.Instruction, r *sass.RegSet, p *sass.PredSet, c *bool) {
		for _, d := range in.GPRDsts() {
			if d != sass.RZ {
				r.Add(d)
			}
		}
		for _, d := range in.PredDsts() {
			p.Add(d)
		}
		if in.Mods.SetCC {
			*c = true
		}
	}
	for bi, b := range cfg.Blocks {
		for i := b.Start; i < b.End; i++ {
			addDefs(&k.Instrs[i], &genR[bi], &genP[bi], &genCC[bi])
		}
	}
	inR := make([]sass.RegSet, nb)
	inP := make([]sass.PredSet, nb)
	inCC := make([]bool, nb)
	inR[0].Add(sass.SP)
	for changed := true; changed; {
		changed = false
		for bi, b := range cfg.Blocks {
			var accR sass.RegSet
			var accP sass.PredSet
			accCC := false
			if bi == 0 {
				accR.Add(sass.SP)
			}
			for _, pr := range b.Preds {
				unionRegs(&accR, &genR[pr])
				unionRegs(&accR, &inR[pr])
				accP |= genP[pr]
				accP |= inP[pr]
				accCC = accCC || genCC[pr] || inCC[pr]
			}
			if accR != inR[bi] || accP != inP[bi] || accCC != inCC[bi] {
				inR[bi], inP[bi], inCC[bi] = accR, accP, accCC
				changed = true
			}
		}
	}
	for bi, b := range cfg.Blocks {
		curR, curP, curCC := inR[bi], inP[bi], inCC[bi]
		for i := b.Start; i < b.End; i++ {
			regs[i], preds[i], cc[i] = curR, curP, curCC
			addDefs(&k.Instrs[i], &curR, &curP, &curCC)
		}
	}
	return regs, preds, cc
}

// modelLiveness runs backward dataflow over the CFG to a fixed point.
func modelLiveness(cfg *sass.CFG) *modelLiveInfo {
	k := cfg.Kernel
	n := len(k.Instrs)
	li := &modelLiveInfo{
		LiveIn:     make([]sass.RegSet, n),
		PredLiveIn: make([]sass.PredSet, n),
		CCLiveIn:   make([]bool, n),
	}
	// Block-level out sets.
	blockOut := make([]sass.RegSet, len(cfg.Blocks))
	blockPredOut := make([]sass.PredSet, len(cfg.Blocks))
	blockCCOut := make([]bool, len(cfg.Blocks))

	// Precompute per-instruction def/use.
	defs := make([]sass.RegSet, n)
	uses := make([]sass.RegSet, n)
	pdefs := make([]sass.PredSet, n)
	puses := make([]sass.PredSet, n)
	ccdefs := make([]bool, n)
	ccuses := make([]bool, n)
	maybeR, maybeP, maybeCC := maybeAssignedAt(cfg)
	for i := range k.Instrs {
		defs[i], uses[i], pdefs[i], puses[i], ccdefs[i], ccuses[i] =
			instrDefsUses(&k.Instrs[i], &maybeR[i], maybeP[i], maybeCC[i])
	}

	changed := true
	for changed {
		changed = false
		for bi := len(cfg.Blocks) - 1; bi >= 0; bi-- {
			b := cfg.Blocks[bi]
			var out sass.RegSet
			var pout sass.PredSet
			ccout := false
			for _, s := range b.Succs {
				sb := cfg.Blocks[s]
				if sb.Start < n {
					unionRegs(&out, &li.LiveIn[sb.Start])
					pout |= li.PredLiveIn[sb.Start]
					ccout = ccout || li.CCLiveIn[sb.Start]
				}
			}
			// The CFG carries no call edges, so at a CAL (the callee may
			// read anything) and a RET (the return continuation is unknown)
			// everything must be treated as live. Only hand-authored call
			// trees contain these ops; compiled kernels are unaffected.
			if b.End > b.Start {
				switch k.Instrs[b.End-1].Op {
				case sass.OpCAL, sass.OpRET:
					for w := range out {
						out[w] = ^uint64(0)
					}
					out.Remove(sass.RZ)
					pout = sass.PredSet(0x7f)
					ccout = true
				}
			}
			blockOut[bi] = out
			blockPredOut[bi] = pout
			blockCCOut[bi] = ccout
			// Walk the block backward.
			live := out
			plive := pout
			cclive := ccout
			for i := b.End - 1; i >= b.Start; i-- {
				for _, r := range defs[i].Regs() {
					live.Remove(r)
				}
				unionRegs(&live, &uses[i])
				for _, p := range pdefs[i].Preds() {
					plive &^= 1 << p
				}
				plive |= puses[i]
				if ccdefs[i] {
					cclive = false
				}
				if ccuses[i] {
					cclive = true
				}
				if live != li.LiveIn[i] {
					li.LiveIn[i] = live
					changed = true
				}
				if plive != li.PredLiveIn[i] {
					li.PredLiveIn[i] = plive
					changed = true
				}
				if cclive != li.CCLiveIn[i] {
					li.CCLiveIn[i] = cclive
					changed = true
				}
			}
		}
	}
	return li
}

// livenessMismatch compares Liveness with the model at every instruction
// of cfg's kernel and describes the first difference, or returns "". R255
// is left out of the comparison: the model tracks it as a source (R254
// read as a 64-bit pair is R254 and R255), the regspace drops it.
func livenessMismatch(cfg *sass.CFG) string {
	got, want := Liveness(cfg), modelLiveness(cfg)
	for i := range want.LiveIn {
		var extra, lack sass.RegSet
		for w := range extra {
			extra[w] = got.LiveIn[i][w] &^ want.LiveIn[i][w]
			lack[w] = want.LiveIn[i][w] &^ got.LiveIn[i][w]
		}
		lack.Remove(sass.RZ)
		gp, wp := got.PredLiveIn[i], want.PredLiveIn[i]
		if extra != (sass.RegSet{}) || lack != (sass.RegSet{}) || gp != wp || got.CCLiveIn[i] != want.CCLiveIn[i] {
			return fmt.Sprintf("%s@%d: Liveness has R%v P%v the model does not, lacks R%v P%v; CC %v, model %v",
				cfg.Kernel.Name, i, extra.Regs(), (gp &^ wp).Preds(), lack.Regs(), (wp &^ gp).Preds(),
				got.CCLiveIn[i], want.CCLiveIn[i])
		}
	}
	return ""
}

// unionRegs merges o into s: the model's register-set union.
func unionRegs(s, o *sass.RegSet) {
	for i := range s {
		s[i] |= o[i]
	}
}
