// Control-flow integrity: AnalyzeCFI computes per-kernel legal target
// sets for every indirect control transfer in compiled SASS — CAL call
// sites, RET return addresses, SSY/SYNC reconvergence points, and the
// deferred paths of divergent branches — and checks them statically, in
// the spirit of protected-site CFI on GPU binaries (WarpGuard). The same
// target sets feed the runtime cross-check (internal/handlers.CFIChecker),
// which loads them as per-kernel shadow tables and validates the warp's
// call and divergence stacks at every control-transfer site.
//
// As the "cfi" check it is one of Verify's fixed list, so every verified
// compile, in every binary, flags structural CFI violations:
//
//   - a CAL whose target is also reachable by fall-through or branch
//     from outside the subroutine (a call into the middle of a region);
//   - a RET reachable with an empty call stack, or never reachable from
//     any call site at all, and call depth past the bound — read from the
//     control-stack walk (control.go);
//   - a SYNC with no enclosing SSY region, or an SSY whose reconvergence
//     target precedes it;
//   - a CAL under a provably thread-dependent guard (the machine traps
//     on divergent calls) — proven via the affine value lattice.

package analysis

import (
	"fmt"

	"sassi/internal/sass"
)

// CFITargets holds one kernel's legal target sets, keyed by instruction
// index. The runtime checker computes them over the instrumented kernel,
// so indices there are instrumented-code indices.
type CFITargets struct {
	// Entries are legal subroutine entry points: the targets of CAL
	// instructions.
	Entries map[int]bool
	// Returns are legal return addresses: i+1 for every CAL at i. A
	// warp call-stack entry holding any other value is corrupt.
	Returns map[int]bool
	// Reconv are legal reconvergence PCs: the targets of SSY
	// instructions. An SSY-kind divergence-stack entry must resume at
	// one of these.
	Reconv map[int]bool
	// Defer are legal deferred-path PCs: i+1 for every conditional
	// branch at i whose guard is not provably warp-uniform. A
	// deferred-path divergence-stack entry must resume at one of these.
	Defer map[int]bool
}

// Legal reports whether a warp call-stack entry value is a legal return
// address.
func (t *CFITargets) Legal(ret int) bool { return t.Returns[ret] }

// AnalyzeCFI derives the kernel's legal target sets and the structural CFI
// diagnostics. It assumes the structural pass ran clean (resolved labels,
// in-range targets), which VerifyKernelFacts guarantees before it runs
// the check.
func AnalyzeCFI(f *KernelFacts) (*CFITargets, []Diagnostic) {
	cfg := f.CFG
	k := cfg.Kernel
	t := &CFITargets{
		Entries: map[int]bool{},
		Returns: map[int]bool{},
		Reconv:  map[int]bool{},
		Defer:   map[int]bool{},
	}
	var diags []Diagnostic
	report := func(sev Severity, idx int, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Sev: sev, Check: CheckCFI, Kernel: k.Name,
			Instr: idx, Msg: fmt.Sprintf(format, args...),
		})
	}

	w, g := f.CFG.Control, f.guards()
	pdom := f.postDominators()
	n := len(k.Instrs)
	// A SYNC lies inside some SSY region when an earlier SSY's
	// reconvergence target is beyond it. One outside every region pops a
	// frame that cannot belong to an enclosing SSY: the shape control-state
	// corruption produces.
	regionEnd := 0
	for i := range k.Instrs {
		in := &k.Instrs[i]
		tgt, ok := in.BranchTarget()
		ok = ok && tgt.Kind == sass.OpdLabel // else the structural check reports the operand
		to := int(tgt.Imm)
		switch {
		case in.Op == sass.OpCAL && ok:
			t.Entries[to] = true
			if i+1 < n {
				t.Returns[i+1] = true
			}
			if g.tidDep.Has(i) {
				report(Error, i, "CAL guard is provably thread-dependent: a divergent call traps")
			}
			if w.Noted(i)&sass.NoteCALDeep != 0 {
				report(Error, i, "call depth exceeds %d on some path (unbounded recursion?)", sass.MaxCallDepth)
			}
		case in.Op == sass.OpRET:
			switch {
			case w.Noted(i)&sass.NoteRETEmpty != 0:
				report(Error, i, "RET reachable with an empty call stack: no matching CAL on some path")
			case w.Noted(i)&sass.NoteRETCalled == 0 && !w.Truncated && !w.CutShort:
				// A path the walk stopped at a divergence-stack error
				// (reported as such) may have gone on to this RET.
				report(Error, i, "RET is not reachable from any call site: return cannot match a CAL")
			}
		case in.Op == sass.OpSYNC && regionEnd <= i:
			report(Error, i, "SYNC has no enclosing SSY region: reconvergence outside any SSY/SYNC pair")
		case in.Op == sass.OpSSY && ok:
			regionEnd = max(regionEnd, to)
			t.Reconv[to] = true
			if to <= i {
				report(Error, i, "SSY reconvergence target @%04x precedes the SSY: reconvergence outside the region",
					sass.InsOffset(to))
			}
			if to < n && !PostDominates(pdom, cfg.BlockOf(to).ID, cfg.BlockOf(i).ID) {
				report(Warning, i, "SSY reconvergence target @%04x does not post-dominate the SSY: some path skips the reconvergence point",
					sass.InsOffset(to))
			}
		case g.splits.Has(i) && i+1 < n:
			t.Defer[i+1] = true
		}
	}
	if w.Truncated {
		report(Warning, -1, "call-path analysis truncated after %d states; RET reachability unchecked", sass.MaxCtlStates)
	}
	diags = append(diags, checkEntries(cfg, t)...)
	return t, diags
}

// checkEntries verifies that no subroutine entry is also reachable by
// ordinary control flow from outside the subroutine (a call into the
// middle of a region). A predecessor inside the subroutine — a loop whose
// head is the entry — is legal, so only predecessors not reachable from
// the entry itself are flagged.
func checkEntries(cfg *sass.CFG, t *CFITargets) []Diagnostic {
	var diags []Diagnostic
	for e := range cfg.Kernel.Instrs {
		if !t.Entries[e] {
			continue
		}
		eb := cfg.BlockOf(e)
		if eb == nil || eb.Start != e {
			// A mid-block entry cannot happen after label resolution (the
			// target is a leader); defensive for callers skipping checks.
			diags = append(diags, Diagnostic{
				Sev: Error, Check: CheckCFI, Kernel: cfg.Kernel.Name, Instr: e,
				Msg: "CAL target is not a basic-block head",
			})
			continue
		}
		if len(eb.Preds) == 0 {
			continue
		}
		inBody := reachableFrom(cfg, eb.ID)
		for _, p := range eb.Preds {
			if !inBody[p] {
				diags = append(diags, Diagnostic{
					Sev: Error, Check: CheckCFI, Kernel: cfg.Kernel.Name, Instr: e,
					Msg: fmt.Sprintf("subroutine entry @%04x is also reachable by fall-through or branch from @%04x: call into the middle of a region",
						sass.InsOffset(e), sass.InsOffset(cfg.Blocks[p].End-1)),
				})
				break
			}
		}
	}
	return diags
}

// reachableFrom returns the set of blocks reachable from block b over CFG
// edges.
func reachableFrom(cfg *sass.CFG, b int) []bool {
	seen := make([]bool, len(cfg.Blocks))
	stack := []int{b}
	seen[b] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cfg.Blocks[cur].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}
