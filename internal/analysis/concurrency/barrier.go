package concurrency

import (
	"fmt"

	"sassi/internal/analysis"
	"sassi/internal/sass"
)

// CheckBarrierAlignment reports BAR.SYNC instructions that can execute
// while lanes are deferred, read from the kernel's control-stack walk
// (analysis.KernelFacts.Barriers). This is the static mirror of the
// simulator's dynamic rule (internal/sim/exec.go): BAR faults when Active
// != Alive (a branch deferral has not reconverged) or when its guard
// excludes active lanes.
//
// The walk splits the warp at every guarded BRA whose guard the value
// lattice cannot prove warp-uniform, so a deferral still open at a BAR is
// an Error when the branch's guard provably compares tid-derived values
// (the warp WILL split given >1 thread) and a Warning when uniformity is
// merely unprovable.
func CheckBarrierAlignment(f *analysis.KernelFacts) []analysis.Diagnostic {
	k := f.CFG.Kernel
	reached, open, truncated := f.Barriers()
	var diags []analysis.Diagnostic
	report := func(sev analysis.Severity, i int, format string, args ...any) {
		diags = append(diags, analysis.Diagnostic{
			Sev: sev, Check: analysis.CheckBarrier, Kernel: k.Name, Instr: i, Msg: fmt.Sprintf(format, args...),
		})
	}
	for _, i := range reached {
		if k.Instrs[i].Guard.IsAlways() {
			continue
		}
		switch facts := f.Values().GuardFacts(i); {
		case facts.TidDep:
			report(analysis.Error, i,
				"guarded BAR.SYNC with a thread-dependent guard: lanes whose guard fails never arrive (deadlock)")
		case !facts.Uniform:
			report(analysis.Warning, i,
				"guarded BAR.SYNC: the guard is not provably warp-uniform, so some lanes may never arrive (deadlock)")
		default:
			report(analysis.Warning, i,
				"guarded BAR.SYNC deadlocks whenever the guard evaluates false (the simulator requires all active lanes to arrive)")
		}
	}
	for _, o := range open {
		sev := analysis.Warning
		if o.TidDep {
			sev = analysis.Error
		}
		report(sev, o.Bar,
			"BAR.SYNC reachable while the warp is diverged: the branch at @%04x has not reconverged (deferred lanes would never arrive: deadlock)",
			sass.InsOffset(o.Branch))
	}
	if truncated {
		report(analysis.Warning, -1, "barrier analysis truncated: the control-stack walk ran out of states; remaining paths unchecked")
	}
	return diags
}
