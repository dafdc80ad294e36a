// Control-flow integrity: AnalyzeCFI computes per-kernel legal target
// sets for every indirect control transfer in compiled SASS — CAL call
// sites, RET return addresses, SSY/SYNC reconvergence points, and the
// deferred paths of divergent branches — and checks them statically, in
// the spirit of protected-site CFI on GPU binaries (WarpGuard). The same target sets
// feed the runtime cross-check (internal/handlers.CFIChecker), which
// loads them as per-kernel shadow tables and validates the warp's call
// and divergence stacks at every control-transfer site.
//
// As the "cfi" check it is one of Verify's fixed list, so every verified
// compile, in every binary, flags structural CFI violations:
//
//   - a CAL whose target is also reachable by fall-through or branch
//     from outside the subroutine (a call into the middle of a region);
//   - a RET reachable with an empty call stack, or never reachable from
//     any call site at all;
//   - a SYNC with no enclosing SSY region, or an SSY whose reconvergence
//     target precedes it;
//   - a CAL under a provably thread-dependent guard (the machine traps
//     on divergent calls) — proven via the affine value lattice.

package analysis

import (
	"fmt"
	"sort"

	"sassi/internal/sass"
)

// maxCallStates bounds the call-path abstract interpretation; its depth
// bound is the divergence checker's maxCallDepth.
const maxCallStates = 1 << 14

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
	// CallSites maps each CAL instruction index to its target.
	CallSites map[int]int
	// MaxCallDepth is the deepest call stack the abstract interpretation
	// saw on any path from kernel entry.
	MaxCallDepth int
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
		Entries:   map[int]bool{},
		Returns:   map[int]bool{},
		Reconv:    map[int]bool{},
		Defer:     map[int]bool{},
		CallSites: map[int]int{},
	}
	var diags []Diagnostic
	errorf := func(idx int, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Sev: Error, Check: CheckCFI, Kernel: k.Name,
			Instr: idx, Msg: fmt.Sprintf(format, args...),
		})
	}
	warnf := func(idx int, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Sev: Warning, Check: CheckCFI, Kernel: k.Name,
			Instr: idx, Msg: fmt.Sprintf(format, args...),
		})
	}

	val := f.Values()
	n := len(k.Instrs)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		switch {
		case in.Op == sass.OpCAL:
			tgt, ok := in.BranchTarget()
			if !ok || tgt.Kind != sass.OpdLabel {
				continue // structural check reports the malformed operand
			}
			t.Entries[int(tgt.Imm)] = true
			t.CallSites[i] = int(tgt.Imm)
			if i+1 < n {
				t.Returns[i+1] = true
			}
			if !in.Guard.IsAlways() && val.GuardFacts(i).TidDep {
				errorf(i, "CAL guard is provably thread-dependent: a divergent call traps")
			}
		case in.Op == sass.OpSSY:
			tgt, ok := in.BranchTarget()
			if !ok || tgt.Kind != sass.OpdLabel {
				continue
			}
			t.Reconv[int(tgt.Imm)] = true
			if int(tgt.Imm) <= i {
				errorf(i, "SSY reconvergence target @%04x precedes the SSY: reconvergence outside the region",
					sass.InsOffset(int(tgt.Imm)))
			}
		case in.IsCondBranch():
			if i+1 < n && !val.GuardFacts(i).Uniform {
				t.Defer[i+1] = true
			}
		}
	}

	diags = append(diags, checkSyncRegions(k)...)
	diags = append(diags, checkEntries(cfg, t)...)
	checkCallPaths(cfg, t, errorf)
	pdom := PostDominators(cfg)
	for i := range k.Instrs {
		if k.Instrs[i].Op != sass.OpSSY {
			continue
		}
		tgt, ok := k.Instrs[i].BranchTarget()
		if !ok || tgt.Kind != sass.OpdLabel || int(tgt.Imm) >= n {
			continue
		}
		tb := cfg.BlockOf(int(tgt.Imm))
		sb := cfg.BlockOf(i)
		if tb != nil && sb != nil && !PostDominates(pdom, tb.ID, sb.ID) {
			warnf(i, "SSY reconvergence target @%04x does not post-dominate the SSY: some path skips the reconvergence point",
				sass.InsOffset(int(tgt.Imm)))
		}
	}
	return t, diags
}

// checkSyncRegions verifies that every SYNC lies inside some SSY region:
// an SSY at i < s whose reconvergence target is beyond s. A SYNC outside
// every region pops a frame that cannot belong to an enclosing SSY — the
// shape control-state corruption produces.
func checkSyncRegions(k *sass.Kernel) []Diagnostic {
	var diags []Diagnostic
	type region struct{ ssy, target int }
	var regions []region
	for i := range k.Instrs {
		if k.Instrs[i].Op != sass.OpSSY {
			continue
		}
		if tgt, ok := k.Instrs[i].BranchTarget(); ok && tgt.Kind == sass.OpdLabel {
			regions = append(regions, region{i, int(tgt.Imm)})
		}
	}
	for s := range k.Instrs {
		if k.Instrs[s].Op != sass.OpSYNC {
			continue
		}
		enclosed := false
		for _, r := range regions {
			if r.ssy < s && s < r.target {
				enclosed = true
				break
			}
		}
		if !enclosed {
			diags = append(diags, Diagnostic{
				Sev: Error, Check: CheckCFI, Kernel: k.Name, Instr: s,
				Msg: "SYNC has no enclosing SSY region: reconvergence outside any SSY/SYNC pair",
			})
		}
	}
	return diags
}

// checkEntries verifies that no subroutine entry is also reachable by
// ordinary control flow from outside the subroutine (a call into the
// middle of a region). A predecessor inside the subroutine — a loop whose
// head is the entry — is legal, so only predecessors not reachable from
// the entry itself are flagged.
func checkEntries(cfg *sass.CFG, t *CFITargets) []Diagnostic {
	var diags []Diagnostic
	entries := make([]int, 0, len(t.Entries))
	for e := range t.Entries {
		entries = append(entries, e)
	}
	sort.Ints(entries)
	for _, e := range entries {
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

// checkCallPaths abstractly interprets the kernel tracking only the call
// stack: CAL pushes its return address and transfers to the callee, RET
// pops and transfers to the popped address. It reports, through errorf,
// RETs reachable with an empty call stack, RETs unreachable from any call
// site, and call depth beyond the machine bound, and records the deepest
// stack seen in t.MaxCallDepth.
func checkCallPaths(cfg *sass.CFG, t *CFITargets, errorf func(int, string, ...any)) {
	k := cfg.Kernel
	n := len(k.Instrs)
	if n == 0 {
		return
	}

	type state struct {
		block int
		stack string // call stack encoded as comma-joined return indices
	}
	encode := func(s []int) string {
		out := ""
		for _, v := range s {
			out += fmt.Sprintf("%d,", v)
		}
		return out
	}
	seen := map[state]bool{}
	type item struct {
		block int
		stack []int
	}
	work := []item{{block: 0}}
	seen[state{0, ""}] = true

	retReachable := map[int]bool{}  // RET index -> reached with non-empty stack
	retEmpty := map[int]bool{}      // RET index -> reached with empty stack
	depthExceeded := map[int]bool{} // CAL index -> depth bound hit
	overflow := false

	push := func(w *[]item, blk int, stack []int) {
		key := state{blk, encode(stack)}
		if seen[key] {
			return
		}
		if len(seen) >= maxCallStates {
			overflow = true
			return
		}
		seen[key] = true
		*w = append(*w, item{blk, stack})
	}

	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if d := len(it.stack); d > t.MaxCallDepth {
			t.MaxCallDepth = d
		}
		blk := cfg.Blocks[it.block]
		last := blk.End - 1
		in := &k.Instrs[last]
		switch {
		case in.Op == sass.OpCAL:
			tgt, ok := in.BranchTarget()
			if !ok || tgt.Kind != sass.OpdLabel || int(tgt.Imm) >= n {
				continue
			}
			if len(it.stack) >= maxCallDepth {
				if !depthExceeded[last] {
					depthExceeded[last] = true
					errorf(last, "call depth exceeds %d on some path (unbounded recursion?)", maxCallDepth)
				}
				continue
			}
			stack := append(append([]int(nil), it.stack...), last+1)
			if cb := cfg.BlockOf(int(tgt.Imm)); cb != nil {
				push(&work, cb.ID, stack)
			}
		case in.Op == sass.OpRET:
			if len(it.stack) == 0 {
				if !retEmpty[last] {
					retEmpty[last] = true
					errorf(last, "RET reachable with an empty call stack: no matching CAL on some path")
				}
				continue
			}
			retReachable[last] = true
			ret := it.stack[len(it.stack)-1]
			if ret >= n {
				continue
			}
			if rb := cfg.BlockOf(ret); rb != nil {
				push(&work, rb.ID, it.stack[:len(it.stack)-1])
			}
		default:
			for _, s := range blk.Succs {
				push(&work, s, it.stack)
			}
		}
	}

	if !overflow {
		for i := range k.Instrs {
			if k.Instrs[i].Op == sass.OpRET && !retReachable[i] && !retEmpty[i] {
				errorf(i, "RET is not reachable from any call site: return cannot match a CAL")
			}
		}
	}
}
