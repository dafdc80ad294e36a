package sass

// Control-stack walk bounds. Real compiled code nests SSY regions a
// handful deep; hitting a depth cap is itself noted, and each check that
// reads a truncated walk says so.
const (
	MaxDivDepth  = 32
	MaxCallDepth = 32
	MaxCtlStates = 1 << 16
)

// A Note is what the control-stack walk saw at an instruction, one bit per
// kind.
type Note uint8

const (
	NoteFallOff     Note = 1 << iota // control ran past this, the last instruction
	NoteSSYDeep                      // SSY at the divergence-stack depth bound
	NoteSYNCGuarded                  // guarded SYNC
	NoteSYNCEmpty                    // SYNC with an empty divergence stack
	NoteCALGuarded                   // guarded CAL
	NoteCALDeep                      // CAL at the call-stack depth bound
	NoteRETEmpty                     // RET with an empty call stack
	NoteRETCalled                    // RET with a caller
)

// ControlWalk is an abstract interpretation of every control-flow path of
// a kernel, tracking the two stacks the warp scheduler keeps
// (internal/sim: execOp, execBranch, popToNonEmpty):
//
//   - SSY pushes its reconvergence target;
//   - a guarded BRA runs both arms with the stack unchanged, as if the
//     whole warp went one way; where WalkSplit is told the warp may split,
//     the taken lanes also run with a deferral entry pushed that resumes
//     the fall-through lanes at the branch's successor;
//   - SYNC pops the top entry and resumes there; with an empty stack the
//     warp silently retires, which is almost always a compiler bug;
//   - EXIT ends the path unless guarded, when it also falls through; once
//     every active lane has retired, the scheduler pops to whichever entry
//     still has live lanes, so in a split walk any entry may resume;
//   - CAL pushes its return address, RET pops it; JCAL is a handler
//     dispatch with no net stack effect;
//   - reaching past the last instruction is an error.
//
// BuildCFG walks the unsplit states: each group of lanes as if it ran
// alone, which is what one lane sees. A SYNC's CFG edges are the entries
// they find on top there, and the stack errors and the CAL and RET facts
// are noted on them. The split states, which WalkSplit adds from the
// unsplit ones through the same memo, matter only at a barrier, where what
// counts is which split lanes are still deferred.
//
// Both stacks are depth-bounded (unbounded recursion or runaway SSY
// nesting stops a path), and the state space (pc, stacks) is memoised, so
// loops terminate; past MaxCtlStates the walk stops. Like the CFG that
// holds it, a walk that WalkSplit extends is for one goroutine.
type ControlWalk struct {
	// Notes[pc] has the note bits the unsplit walk saw at pc; nil while
	// there are none.
	Notes []Note
	// Open holds (BAR.SYNC, branch) pairs the split walk found: the
	// branch's deferred lanes were still on the divergence stack when it
	// reached the BAR.
	Open map[[2]int32]bool
	// CutShort reports an unsplit path stopped at a divergence-stack
	// error; Truncated that the unsplit walk ran out of states,
	// SplitTruncated the split one.
	CutShort, Truncated, SplitTruncated bool

	instrs []Instruction
	stacks stackTable
	// The memo. Nearly every pc is only ever reached with one pair of
	// stacks: first[pc] holds that pair (+1, so 0 means none yet) and only
	// a pc's further pairs go to more. Pushed pcs lie in [0, n].
	first []uint64
	more  map[ctlState]bool
	seen  int
	work  []ctlState
	// syncs has each (SYNC, resume pc) the unsplit walk took.
	syncs [][2]int32
	// later has the unsplit states a split may leave: at guarded BRAs and
	// at EXITs with a non-empty divergence stack.
	later []ctlState
	// split is nil while the unsplit states are walked.
	split func(pc int) bool
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

// walkControl walks k's unsplit states.
func walkControl(k *Kernel) *ControlWalk {
	w := &ControlWalk{
		instrs: k.Instrs, first: make([]uint64, len(k.Instrs)+1),
		stacks: stackTable{nodes: make([]stackNode, 1), ids: map[stackNode]stackID{}},
		more:   map[ctlState]bool{},
	}
	w.push(0, emptyStack, emptyStack)
	w.Truncated = w.drain()
	return w
}

// WalkSplit walks, once, the states only a split warp reaches: split(pc)
// reports whether the warp may split at the guarded BRA at pc.
func (w *ControlWalk) WalkSplit(split func(pc int) bool) {
	if w.split != nil {
		return
	}
	w.split = split
	for _, s := range w.later {
		w.splitFrom(s)
	}
	w.SplitTruncated = w.drain() // at once if the unsplit walk ran out
}

// Noted returns the note bits the unsplit walk saw at pc.
func (w *ControlWalk) Noted(pc int) Note {
	if w.Notes == nil {
		return 0
	}
	return w.Notes[pc]
}

// Reached reports whether the walk reached pc.
func (w *ControlWalk) Reached(pc int) bool { return w.first[pc] != 0 }

func (w *ControlWalk) push(pc int, div, call stackID) {
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

// maySplit is a state a split may leave: the unsplit walk keeps it for
// WalkSplit, the split walk follows the split at once.
func (w *ControlWalk) maySplit(s ctlState) {
	if w.split == nil {
		w.later = append(w.later, s)
	} else {
		w.splitFrom(s)
	}
}

// splitFrom pushes the successors only a split warp reaches from s.
func (w *ControlWalk) splitFrom(s ctlState) {
	pc := int(s.pc)
	if w.instrs[pc].Op == OpBRA {
		if w.split(pc) && w.stacks.depth(s.div) < MaxDivDepth {
			t, _ := w.instrs[pc].BranchTarget()
			w.push(int(t.Imm), w.stacks.push(s.div, ^pc), s.call)
		}
		return
	}
	for d := s.div; d != emptyStack; { // EXIT
		top, below := w.stacks.pop(d)
		w.push(resume(top), below, s.call)
		d = below
	}
}

// note records a fact of the unsplit walk.
func (w *ControlWalk) note(pc int, bits Note) {
	if w.split != nil {
		return
	}
	if w.Notes == nil {
		w.Notes = make([]Note, len(w.instrs))
	}
	w.Notes[pc] |= bits
	w.CutShort = w.CutShort || bits&(NoteSSYDeep|NoteSYNCEmpty) != 0
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
func (w *ControlWalk) drain() bool {
	n := len(w.instrs)
	stacks := &w.stacks
	for len(w.work) > 0 {
		if w.seen > MaxCtlStates {
			return true
		}
		s := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		pc := int(s.pc)
		if pc >= n {
			w.note(n-1, NoteFallOff)
			continue
		}
		in := &w.instrs[pc]
		guarded := !in.Guard.IsAlways()
		t, ok := in.BranchTarget()
		to := int(t.Imm)
		if (in.Op == OpSSY || in.Op == OpBRA || in.Op == OpCAL) && (!ok || t.Kind != OpdLabel || to < 0 || to > n) {
			continue // structural check reports it
		}

		switch in.Op {
		case OpSSY:
			if stacks.depth(s.div) >= MaxDivDepth {
				w.note(pc, NoteSSYDeep)
				continue
			}
			w.push(pc+1, stacks.push(s.div, to), s.call)

		case OpSYNC:
			if guarded {
				w.note(pc, NoteSYNCGuarded)
			}
			if s.div == emptyStack {
				w.note(pc, NoteSYNCEmpty)
				continue
			}
			top, rest := stacks.pop(s.div)
			if w.split == nil {
				w.syncs = append(w.syncs, [2]int32{s.pc, int32(top)})
			}
			w.push(resume(top), rest, s.call)

		case OpBRA:
			w.push(to, s.div, s.call)
			if guarded {
				w.push(pc+1, s.div, s.call)
				w.maySplit(s)
			}

		case OpEXIT:
			if guarded {
				w.push(pc+1, s.div, s.call)
			}
			if s.div != emptyStack {
				w.maySplit(s)
			}

		case OpCAL:
			if guarded {
				w.note(pc, NoteCALGuarded)
			}
			if stacks.depth(s.call) >= MaxCallDepth {
				w.note(pc, NoteCALDeep)
				continue
			}
			w.push(to, s.div, stacks.push(s.call, pc+1))
			if guarded {
				w.push(pc+1, s.div, s.call)
			}

		case OpRET:
			if s.call == emptyStack {
				w.note(pc, NoteRETEmpty)
				continue
			}
			w.note(pc, NoteRETCalled)
			ret, rest := stacks.pop(s.call)
			w.push(ret, s.div, rest)
			if guarded {
				w.push(pc+1, s.div, s.call)
			}

		case OpBAR:
			for d := s.div; d != emptyStack; {
				top, below := stacks.pop(d)
				if top < 0 {
					if w.Open == nil {
						w.Open = map[[2]int32]bool{}
					}
					w.Open[[2]int32{s.pc, int32(^top)}] = true
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
