package analysis

import (
	"cmp"
	"fmt"
	"slices"

	"sassi/internal/sass"
)

// guardFacts is what the value lattice says about the guards of a
// kernel's branches and calls: splits has each guarded BRA whose guard is
// not provably warp-uniform, where the CFG's control-stack walk
// (sass.ControlWalk) splits the warp; tidDep each guarded BRA or CAL whose
// guard provably depends on the thread index.
type guardFacts struct {
	splits, tidDep Bits
}

// guards returns the kernel's guard facts, read on the first call.
func (f *KernelFacts) guards() *guardFacts {
	if f.guard != nil {
		return f.guard
	}
	k := f.CFG.Kernel
	g := &guardFacts{splits: NewBits(len(k.Instrs)), tidDep: NewBits(len(k.Instrs))}
	// Read once and in index order: the valuation replays a block from
	// its start when asked out of order.
	val := f.Values()
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if (in.Op != sass.OpBRA && in.Op != sass.OpCAL) || in.Guard.IsAlways() {
			continue
		}
		facts := val.GuardFacts(i)
		if in.Op == sass.OpBRA && !facts.Uniform {
			g.splits.Set(i)
		}
		if facts.TidDep {
			g.tidDep.Set(i)
		}
	}
	f.guard = g
	return g
}

// checkDivergence is the divergence check: SSY/SYNC and CAL/RET push and
// pop matched and bounded on every path of the control-stack walk.
func checkDivergence(f *KernelFacts) []Diagnostic {
	w := f.CFG.Control
	var diags []Diagnostic
	for i, bits := range w.Notes {
		for _, r := range divergenceNotes {
			if bits&r.bit != 0 {
				diags = append(diags, Diagnostic{Sev: r.sev, Check: CheckDivergence, Kernel: f.CFG.Kernel.Name, Instr: i, Msg: r.msg})
			}
		}
	}
	if w.Truncated {
		diags = append(diags, Diagnostic{Sev: Warning, Check: CheckDivergence, Kernel: f.CFG.Kernel.Name, Instr: -1,
			Msg: fmt.Sprintf("divergence analysis truncated after %d states; remaining paths unchecked", sass.MaxCtlStates)})
	}
	return diags
}

var divergenceNotes = []struct {
	bit sass.Note
	sev Severity
	msg string
}{
	{sass.NoteFallOff, Error, "control can run past the last instruction (divergence path falls off the kernel end)"},
	{sass.NoteSSYDeep, Error, fmt.Sprintf("divergence stack exceeds depth %d (runaway SSY nesting)", sass.MaxDivDepth)},
	{sass.NoteSYNCGuarded, Warning, "guard on SYNC is ignored by the warp scheduler"},
	{sass.NoteSYNCEmpty, Error, "SYNC with empty divergence stack (warp would silently retire)"},
	{sass.NoteCALGuarded, Warning, "guarded CAL diverges unless the guard is warp-uniform (the backend rejects divergent CAL)"},
	{sass.NoteCALDeep, Error, fmt.Sprintf("call stack exceeds depth %d (unbounded recursion?)", sass.MaxCallDepth)},
	{sass.NoteRETEmpty, Error, "RET with empty call stack"},
}

// OpenBranch is a divergent branch whose deferred lanes were still on the
// divergence stack when the control-stack walk reached a BAR.SYNC.
type OpenBranch struct {
	Bar, Branch int
	TidDep      bool // the branch's guard provably depends on the thread index
}

// Barriers returns what the kernel's control-stack walk saw at BAR.SYNC,
// walking its split states first if no one asked before: the BARs it
// reached and the branches still open at each, both ascending, and whether
// the walk stopped before it explored every path.
func (f *KernelFacts) Barriers() (reached []int, open []OpenBranch, truncated bool) {
	w, g := f.CFG.Control, f.guards()
	w.WalkSplit(g.splits.Has)
	for i := range f.CFG.Kernel.Instrs {
		if f.CFG.Kernel.Instrs[i].Op == sass.OpBAR && w.Reached(i) {
			reached = append(reached, i)
		}
	}
	for p := range w.Open {
		open = append(open, OpenBranch{Bar: int(p[0]), Branch: int(p[1]), TidDep: g.tidDep.Has(int(p[1]))})
	}
	slices.SortFunc(open, func(x, y OpenBranch) int {
		return cmp.Or(cmp.Compare(x.Bar, y.Bar), cmp.Compare(x.Branch, y.Branch))
	})
	return reached, open, w.Truncated || w.SplitTruncated
}
