package analysis

import (
	"fmt"

	"sassi/internal/sass"
)

// Divergence-analysis bounds. Real compiled code nests SSY regions a
// handful deep; hitting these caps is itself reported.
const (
	maxDivDepth  = 32
	maxCallDepth = 32
	maxDivStates = 1 << 16
)

// CheckDivergenceStack abstractly interprets every control-flow path of
// the kernel, tracking the divergence stack (SSY targets) and the call
// stack (CAL return addresses) the way the warp scheduler does:
//
//   - SSY pushes its reconvergence target;
//   - SYNC pops the innermost SSY entry and resumes at its target — with
//     an empty stack the warp silently retires, which is almost always a
//     compiler bug, so it is an error here;
//   - a guarded BRA continues along both arms with the same stack (the
//     hardware defers the fall-through lanes and replays them before
//     reconvergence, so each arm sees the stack the SSY set up);
//   - CAL pushes the return address, RET pops it (empty → error);
//   - JCAL is a handler dispatch with no net stack effect;
//   - an unconditional EXIT ends the path; a guarded EXIT falls through
//     (lanes whose guard failed keep executing);
//   - reaching past the last instruction is an error.
//
// Both stacks are depth-bounded; exceeding the bound (unbounded recursion
// or runaway SSY nesting) is an error. The state space (pc, stacks) is
// memoized, so loops terminate; if the state budget is exhausted the
// remaining paths are skipped with a warning.
//
// This is deliberately not a CFG dataflow pass: BuildCFG adds
// conservative edges from an SSY's block to its reconvergence target,
// which is sound for liveness but merges stack states that never meet at
// runtime.
func CheckDivergenceStack(k *sass.Kernel) []Diagnostic {
	n := len(k.Instrs)
	var diags []Diagnostic
	type finding struct {
		instr int
		msg   string
	}
	reported := map[finding]bool{}
	report := func(sev Severity, i int, format string, args ...any) {
		f := finding{i, fmt.Sprintf(format, args...)}
		if reported[f] {
			return
		}
		reported[f] = true
		diags = append(diags, Diagnostic{
			Sev: sev, Check: CheckDivergence, Kernel: k.Name, Instr: i, Msg: f.msg,
		})
	}

	// A state is a pc plus the two stacks, each named by its node in one
	// hash-consed table: equal stacks have equal IDs, a push is a lookup
	// and a pop is a parent link, so no path copies a stack.
	type state struct {
		pc        int
		div, call stackID // SSY reconvergence targets; CAL return addresses
	}
	stacks := newStackTable()

	// The memo. Nearly every pc is only ever reached with one pair of
	// stacks: first[pc] holds that pair (+1, so 0 means none yet) and only a
	// pc's further pairs go to the map. Pushed pcs lie in [0, n].
	first := make([]uint64, n+1)
	more := map[state]bool{}
	seen := 0
	work := []state{{pc: 0}}
	push := func(s state) {
		pair := (uint64(s.div)<<32 | uint64(s.call)) + 1
		switch {
		case first[s.pc] == pair || more[s]:
			return
		case first[s.pc] == 0:
			first[s.pc] = pair
		default:
			more[s] = true
		}
		seen++
		work = append(work, s)
	}
	truncated := false

	for len(work) > 0 {
		if seen > maxDivStates {
			truncated = true
			break
		}
		s := work[len(work)-1]
		work = work[:len(work)-1]

		if s.pc >= n {
			at := n - 1
			report(Error, at, "control can run past the last instruction (divergence path falls off the kernel end)")
			continue
		}
		in := &k.Instrs[s.pc]
		guarded := !in.Guard.IsAlways()

		// Successor helper: same stacks, next pc.
		succ := func(pc int) state {
			return state{pc: pc, div: s.div, call: s.call}
		}

		switch in.Op {
		case sass.OpSSY:
			t, ok := in.BranchTarget()
			if !ok || t.Imm < 0 || t.Imm > int64(n) {
				continue // structural check reports it
			}
			if stacks.depth(s.div) >= maxDivDepth {
				report(Error, s.pc, "divergence stack exceeds depth %d (runaway SSY nesting)", maxDivDepth)
				continue
			}
			ns := succ(s.pc + 1)
			ns.div = stacks.push(s.div, int(t.Imm))
			push(ns)

		case sass.OpSYNC:
			if guarded {
				report(Warning, s.pc, "guard on SYNC is ignored by the warp scheduler")
			}
			if s.div == emptyStack {
				report(Error, s.pc, "SYNC with empty divergence stack (warp would silently retire)")
				continue
			}
			target, rest := stacks.pop(s.div)
			push(state{pc: target, div: rest, call: s.call})

		case sass.OpBRA:
			t, ok := in.BranchTarget()
			if !ok || t.Imm < 0 || t.Imm > int64(n) {
				continue
			}
			push(succ(int(t.Imm)))
			if guarded {
				push(succ(s.pc + 1))
			}

		case sass.OpEXIT:
			if guarded {
				push(succ(s.pc + 1))
			}
			// Unconditional EXIT ends the path; leftover SSY entries are
			// fine (other lane subsets resume through them).

		case sass.OpCAL:
			t, ok := in.BranchTarget()
			if !ok || t.Imm < 0 || t.Imm > int64(n) {
				continue
			}
			if guarded {
				report(Warning, s.pc, "guarded CAL diverges unless the guard is warp-uniform (the backend rejects divergent CAL)")
			}
			if stacks.depth(s.call) >= maxCallDepth {
				report(Error, s.pc, "call stack exceeds depth %d (unbounded recursion?)", maxCallDepth)
				continue
			}
			ns := succ(int(t.Imm))
			ns.call = stacks.push(s.call, s.pc+1)
			push(ns)
			if guarded {
				push(succ(s.pc + 1))
			}

		case sass.OpRET:
			if s.call == emptyStack {
				report(Error, s.pc, "RET with empty call stack")
				continue
			}
			ret, rest := stacks.pop(s.call)
			push(state{pc: ret, div: s.div, call: rest})
			if guarded {
				push(succ(s.pc + 1))
			}

		case sass.OpPBK, sass.OpBRK:
			// Structural check reports these; no useful successor model.
			continue

		default:
			// JCAL included: handler dispatch, no net stack effect.
			push(succ(s.pc + 1))
		}
	}

	if truncated {
		report(Warning, -1, "divergence analysis truncated after %d states; remaining paths unchecked", maxDivStates)
	}
	return diags
}

// stackID names an immutable stack of ints in a stackTable.
type stackID int32

const emptyStack stackID = 0

type stackNode struct {
	below stackID
	top   int
	depth int // of the stack this node is the top of
}

// stackTable hash-conses stacks: pushing the same value onto the same stack
// always yields the same ID, so stacks compare by ID.
type stackTable struct {
	nodes []stackNode // nodes[id]; nodes[emptyStack] is the zero node
	ids   map[stackNode]stackID
}

func newStackTable() *stackTable {
	return &stackTable{nodes: make([]stackNode, 1), ids: map[stackNode]stackID{}}
}

func (t *stackTable) depth(s stackID) int { return t.nodes[s].depth }

func (t *stackTable) push(s stackID, v int) stackID {
	n := stackNode{below: s, top: v, depth: t.nodes[s].depth + 1}
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
	return t.nodes[s].top, t.nodes[s].below
}
