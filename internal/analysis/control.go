package analysis

import (
	"cmp"
	"fmt"
	"slices"

	"sassi/internal/sass"
)

// Control-stack walk bounds. Real compiled code nests SSY regions a
// handful deep; hitting a depth cap is itself reported, and each check
// that reads a truncated walk says so.
const (
	maxDivDepth  = 32
	maxCallDepth = 32
	maxCtlStates = 1 << 16
)

// What the walk notes at an instruction, one bit per kind.
const (
	noteFallOff     uint8 = 1 << iota // control ran past this, the last instruction
	noteSSYDeep                       // SSY at the divergence-stack depth bound
	noteSYNCGuarded                   // guarded SYNC
	noteSYNCEmpty                     // SYNC with an empty divergence stack
	noteCALGuarded                    // guarded CAL
	noteCALDeep                       // CAL at the call-stack depth bound
	noteRETEmpty                      // RET with an empty call stack
	noteRETCalled                     // RET with a caller
)

// controlWalk is what one abstract interpretation of every control-flow
// path found, tracking the two stacks the warp scheduler keeps
// (internal/sim: execOp, execBranch, popToNonEmpty):
//
//   - SSY pushes its reconvergence target;
//   - a guarded BRA runs both arms with the stack unchanged, as if the
//     whole warp went one way; unless the value lattice proves its guard
//     warp-uniform, it also splits the warp: the taken lanes run with a
//     deferral entry pushed that resumes the fall-through lanes at the
//     branch's successor;
//   - SYNC pops the top entry and resumes there; with an empty stack the
//     warp silently retires, which is almost always a compiler bug;
//   - EXIT ends the path unless guarded, when it also falls through; once
//     every active lane has retired, the scheduler pops to whichever entry
//     still has live lanes, so any entry on the stack may resume;
//   - CAL pushes its return address, RET pops it; JCAL is a handler
//     dispatch with no net stack effect;
//   - reaching past the last instruction is an error.
//
// The states reached without a split or an EXIT resuming a stack entry
// are the unsplit ones: each group of lanes as if it ran alone, with the
// stacks its SSYs and CALs set up. The stack errors and the CAL and RET
// facts are noted on those; the BAR facts on every state, since what
// matters at a barrier is which split lanes are still deferred. Every
// unsplit state is walked before any other, so the memo cannot hide one
// behind a split state at the same pc with the same stacks; the split
// states are walked only when the barrier facts are asked for.
//
// Both stacks are depth-bounded (unbounded recursion or runaway SSY
// nesting stops a path), and the state space (pc, stacks) is memoised, so
// loops terminate; past maxCtlStates the walk stops. It records facts,
// not diagnostics: the divergence, cfi and barrier-divergence checks each
// render their own from one walk.
//
// This is deliberately not a CFG dataflow pass: BuildCFG adds conservative
// edges from an SSY's block to its reconvergence target and from a SYNC
// to the next instruction, which is sound for liveness but merges stack
// states that never meet at runtime.
type controlWalk struct {
	notes []uint8 // notes[pc]: the note bits seen at pc; nil while there are none
	// splits has each guarded BRA whose guard is not provably
	// warp-uniform; tidDep each guarded BRA or CAL whose guard provably
	// depends on the thread index.
	splits, tidDep Bits
	// open holds (BAR.SYNC, branch) pairs: the branch's deferred lanes
	// were still on the divergence stack when the walk reached the BAR.
	open map[[2]int32]bool
	// cutShort reports an unsplit path stopped at a divergence-stack
	// error, which the CFG would have continued past.
	cutShort bool
	// truncated reports the unsplit walk ran out of states; splitTruncated
	// the split one.
	truncated, splitTruncated bool

	// The walk itself.
	instrs []sass.Instruction
	stacks stackTable
	// The memo. Nearly every pc is only ever reached with one pair of
	// stacks: first[pc] holds that pair (+1, so 0 means none yet) and only
	// a pc's further pairs go to more. Pushed pcs lie in [0, n].
	first   []uint64
	more    map[ctlState]bool
	seen    int
	work    []ctlState
	later   []ctlState // the unsplit states' split successors, unmemoised
	unsplit bool
}

// A ctlState is a pc plus the two stacks, each named by its node in one
// hash-consed table: equal stacks have equal IDs, a push is a lookup and a
// pop is a parent link, so no path copies a stack. A divergence entry is
// an SSY's reconvergence target, or ^b for the lanes branch b deferred,
// which resume at b+1.
type ctlState struct {
	pc        int32
	div, call stackID
}

// control returns the kernel's control-stack walk, its unsplit states
// walked on the first call.
func (f *KernelFacts) control() *controlWalk {
	if f.ctl != nil {
		return f.ctl
	}
	k := f.CFG.Kernel
	n := len(k.Instrs)
	w := &controlWalk{
		splits: NewBits(n), tidDep: NewBits(n),
		instrs: k.Instrs, first: make([]uint64, n+1),
		stacks: stackTable{nodes: make([]stackNode, 1), ids: map[stackNode]stackID{}},
		more:   map[ctlState]bool{}, unsplit: true,
	}
	// The guard facts, read once and in index order: the valuation
	// replays a block from its start when asked out of order.
	val := f.Values()
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if (in.Op != sass.OpBRA && in.Op != sass.OpCAL) || in.Guard.IsAlways() {
			continue
		}
		g := val.GuardFacts(i)
		if in.Op == sass.OpBRA && !g.Uniform {
			w.splits.Set(i)
		}
		if g.TidDep {
			w.tidDep.Set(i)
		}
	}
	w.push(0, emptyStack, emptyStack)
	w.truncated = w.drain()
	f.ctl = w
	return w
}

// walkSplit walks the states only a split warp reaches, once.
func (w *controlWalk) walkSplit() {
	if !w.unsplit {
		return
	}
	w.unsplit = false
	for _, s := range w.later {
		w.push(int(s.pc), s.div, s.call)
	}
	w.splitTruncated = w.drain() // at once if the unsplit walk ran out
}

func (w *controlWalk) push(pc int, div, call stackID) {
	s := ctlState{int32(pc), div, call}
	pair := (uint64(div)<<32 | uint64(call)) + 1
	switch {
	case w.first[pc] == pair || w.more[s]:
		return
	case w.first[pc] == 0:
		w.first[pc] = pair
	default:
		w.more[s] = true
	}
	w.seen++
	w.work = append(w.work, s)
}

// split pushes a successor only a split warp reaches.
func (w *controlWalk) split(pc int, div, call stackID) {
	if w.unsplit {
		w.later = append(w.later, ctlState{int32(pc), div, call})
	} else {
		w.push(pc, div, call)
	}
}

// note records a fact of the unsplit walk.
func (w *controlWalk) note(pc int, bits uint8) {
	if !w.unsplit {
		return
	}
	if w.notes == nil {
		w.notes = make([]uint8, len(w.instrs))
	}
	w.notes[pc] |= bits
	w.cutShort = w.cutShort || bits&(noteSSYDeep|noteSYNCEmpty) != 0
}

// noted returns the note bits seen at pc.
func (w *controlWalk) noted(pc int) uint8 {
	if w.notes == nil {
		return 0
	}
	return w.notes[pc]
}

// resume returns where a divergence entry resumes.
func resume(e int) int {
	if e < 0 {
		return ^e + 1
	}
	return e
}

// drain walks the pushed states and everything they reach, reporting
// whether it ran out of states first.
func (w *controlWalk) drain() bool {
	n := len(w.instrs)
	stacks := &w.stacks
	for len(w.work) > 0 {
		if w.seen > maxCtlStates {
			return true
		}
		s := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		pc := int(s.pc)
		if pc >= n {
			w.note(n-1, noteFallOff)
			continue
		}
		in := &w.instrs[pc]
		guarded := !in.Guard.IsAlways()
		t, ok := in.BranchTarget()
		to := int(t.Imm)
		if (in.Op == sass.OpSSY || in.Op == sass.OpBRA || in.Op == sass.OpCAL) && (!ok || to < 0 || to > n) {
			continue // structural check reports it
		}

		switch in.Op {
		case sass.OpSSY:
			if stacks.depth(s.div) >= maxDivDepth {
				w.note(pc, noteSSYDeep)
				continue
			}
			w.push(pc+1, stacks.push(s.div, to), s.call)

		case sass.OpSYNC:
			if guarded {
				w.note(pc, noteSYNCGuarded)
			}
			if s.div == emptyStack {
				w.note(pc, noteSYNCEmpty)
				continue
			}
			top, rest := stacks.pop(s.div)
			w.push(resume(top), rest, s.call)

		case sass.OpBRA:
			w.push(to, s.div, s.call)
			if guarded {
				w.push(pc+1, s.div, s.call)
			}
			if w.splits.Has(pc) && stacks.depth(s.div) < maxDivDepth {
				w.split(to, stacks.push(s.div, ^pc), s.call)
			}

		case sass.OpEXIT:
			if guarded {
				w.push(pc+1, s.div, s.call)
			}
			for d := s.div; d != emptyStack; {
				top, below := stacks.pop(d)
				w.split(resume(top), below, s.call)
				d = below
			}

		case sass.OpCAL:
			if guarded {
				w.note(pc, noteCALGuarded)
			}
			if stacks.depth(s.call) >= maxCallDepth {
				w.note(pc, noteCALDeep)
				continue
			}
			w.push(to, s.div, stacks.push(s.call, pc+1))
			if guarded {
				w.push(pc+1, s.div, s.call)
			}

		case sass.OpRET:
			if s.call == emptyStack {
				w.note(pc, noteRETEmpty)
				continue
			}
			w.note(pc, noteRETCalled)
			ret, rest := stacks.pop(s.call)
			w.push(ret, s.div, rest)
			if guarded {
				w.push(pc+1, s.div, s.call)
			}

		case sass.OpPBK, sass.OpBRK:
			continue // structural check reports these

		case sass.OpBAR:
			for d := s.div; d != emptyStack; {
				top, below := stacks.pop(d)
				if top < 0 {
					if w.open == nil {
						w.open = map[[2]int32]bool{}
					}
					w.open[[2]int32{s.pc, int32(^top)}] = true
				}
				d = below
			}
			fallthrough

		default:
			// JCAL included: handler dispatch, no net stack effect.
			w.push(pc+1, s.div, s.call)
		}
	}
	return false
}

// checkDivergence is the divergence check: SSY/SYNC and CAL/RET push and
// pop matched and bounded on every path of the control-stack walk.
func checkDivergence(f *KernelFacts) []Diagnostic {
	w := f.control()
	var diags []Diagnostic
	for i, bits := range w.notes {
		for _, r := range divergenceNotes {
			if bits&r.bit != 0 {
				diags = append(diags, Diagnostic{Sev: r.sev, Check: CheckDivergence, Kernel: f.CFG.Kernel.Name, Instr: i, Msg: r.msg})
			}
		}
	}
	if w.truncated {
		diags = append(diags, Diagnostic{Sev: Warning, Check: CheckDivergence, Kernel: f.CFG.Kernel.Name, Instr: -1,
			Msg: fmt.Sprintf("divergence analysis truncated after %d states; remaining paths unchecked", maxCtlStates)})
	}
	return diags
}

var divergenceNotes = []struct {
	bit uint8
	sev Severity
	msg string
}{
	{noteFallOff, Error, "control can run past the last instruction (divergence path falls off the kernel end)"},
	{noteSSYDeep, Error, fmt.Sprintf("divergence stack exceeds depth %d (runaway SSY nesting)", maxDivDepth)},
	{noteSYNCGuarded, Warning, "guard on SYNC is ignored by the warp scheduler"},
	{noteSYNCEmpty, Error, "SYNC with empty divergence stack (warp would silently retire)"},
	{noteCALGuarded, Warning, "guarded CAL diverges unless the guard is warp-uniform (the backend rejects divergent CAL)"},
	{noteCALDeep, Error, fmt.Sprintf("call stack exceeds depth %d (unbounded recursion?)", maxCallDepth)},
	{noteRETEmpty, Error, "RET with empty call stack"},
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
	w := f.control()
	w.walkSplit()
	for i := range w.instrs {
		if w.instrs[i].Op == sass.OpBAR && w.first[i] != 0 {
			reached = append(reached, i)
		}
	}
	for p := range w.open {
		open = append(open, OpenBranch{Bar: int(p[0]), Branch: int(p[1]), TidDep: w.tidDep.Has(int(p[1]))})
	}
	slices.SortFunc(open, func(x, y OpenBranch) int {
		return cmp.Or(cmp.Compare(x.Bar, y.Bar), cmp.Compare(x.Branch, y.Branch))
	})
	return reached, open, w.truncated || w.splitTruncated
}

// stackID names an immutable stack of ints in a stackTable.
type stackID int32

const emptyStack stackID = 0

type stackNode struct {
	below stackID
	top   int32
	depth int32 // of the stack this node is the top of
}

// stackTable hash-conses stacks: pushing the same value onto the same stack
// always yields the same ID, so stacks compare by ID.
type stackTable struct {
	nodes []stackNode // nodes[id]; nodes[emptyStack] is the zero node
	ids   map[stackNode]stackID
}

func (t *stackTable) depth(s stackID) int { return int(t.nodes[s].depth) }

func (t *stackTable) push(s stackID, v int) stackID {
	n := stackNode{below: s, top: int32(v), depth: t.nodes[s].depth + 1}
	id, ok := t.ids[n]
	if !ok {
		id = stackID(len(t.nodes))
		t.nodes = append(t.nodes, n)
		t.ids[n] = id
	}
	return id
}

// pop returns the top of non-empty stack s and the stack below it.
func (t *stackTable) pop(s stackID) (top int, below stackID) {
	return int(t.nodes[s].top), t.nodes[s].below
}
