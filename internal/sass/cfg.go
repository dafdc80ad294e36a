package sass

import (
	"fmt"
	"slices"
)

// Block is a basic block: a maximal straight-line run of instructions.
// Start is inclusive, End exclusive (instruction indices into the kernel).
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int // successor block IDs
	Preds []int // predecessor block IDs
}

// CFG is the control flow graph of a kernel. SASSI computes it from the
// final machine code — one of the advantages the paper claims for
// compiler-based instrumentation over binary rewriting (§9.4, §10.1).
//
// An edge means a lane active at the end of one block is next active at
// the start of the other. That is the view injected code has: a site's
// spills and fills touch only the lanes active there, so a register must
// be saved wherever some lane may read it next. Branches and fall-through
// give the edges of every instruction but SYNC; a SYNC's come from the
// control-stack walk (Control), one to each reconvergence target it finds
// on top of the divergence stack there. No edge leaves an unguarded EXIT,
// whose lanes retire, or a RET, whose target is on the call stack (a
// CAL's block falls through to the instruction after it instead).
type CFG struct {
	Kernel *Kernel
	Blocks []*Block
	// Control is the walk of the warp's control stacks the SYNC edges
	// come from.
	Control *ControlWalk
	// blockOf maps an instruction index to its containing block ID.
	blockOf []int
}

// leadersOf marks basic-block leader instructions.
func leadersOf(k *Kernel) []bool {
	n := len(k.Instrs)
	lead := make([]bool, n+1)
	lead[0] = true
	target := func(in *Instruction) {
		if t, ok := in.BranchTarget(); ok && t.Kind == OpdLabel && t.Imm >= 0 && int(t.Imm) <= n {
			lead[t.Imm] = true
		}
	}
	for i := range k.Instrs {
		switch in := &k.Instrs[i]; in.Op {
		case OpBRA, OpCAL:
			target(in)
			lead[i+1] = true
		case OpSSY:
			target(in) // a reconvergence point
		case OpEXIT, OpRET, OpSYNC:
			lead[i+1] = true
		}
	}
	return lead
}

// BuildCFG partitions the kernel into basic blocks and wires up edges.
// Labels must be resolved first.
func BuildCFG(k *Kernel) (*CFG, error) {
	n := len(k.Instrs)
	if n == 0 {
		return nil, fmt.Errorf("kernel %s: empty", k.Name)
	}
	lead := leadersOf(k)
	cfg := &CFG{Kernel: k, blockOf: make([]int, n)}
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || lead[i] {
			b := &Block{ID: len(cfg.Blocks), Start: start, End: i}
			cfg.Blocks = append(cfg.Blocks, b)
			for j := start; j < i; j++ {
				cfg.blockOf[j] = b.ID
			}
			start = i
		}
	}
	// addEdge links the block ending at instruction from to the one
	// starting at instruction to, if there is one.
	addEdge := func(from, to int) {
		if to < 0 || to >= n {
			return
		}
		b, s := cfg.Blocks[cfg.blockOf[from]], cfg.blockOf[to]
		if !slices.Contains(b.Succs, s) {
			b.Succs = append(b.Succs, s)
			cfg.Blocks[s].Preds = append(cfg.Blocks[s].Preds, b.ID)
		}
	}
	var ssys []int // the SSY targets, for a SYNC the walk could not follow
	for i := range k.Instrs {
		in := &k.Instrs[i]
		t, ok := in.BranchTarget()
		ok = ok && t.Kind == OpdLabel
		switch {
		case in.Op == OpSSY && ok:
			ssys = append(ssys, int(t.Imm))
		case in.Op == OpBRA && ok:
			addEdge(i, int(t.Imm))
		}
		if i+1 < n && !lead[i+1] {
			continue
		}
		// The last instruction of a block: does a lane fall through?
		switch in.Op {
		case OpBRA, OpEXIT:
			if !in.Guard.IsAlways() {
				addEdge(i, i+1)
			}
		case OpRET, OpSYNC:
		default:
			addEdge(i, i+1)
		}
	}
	w := walkControl(k)
	cfg.Control = w
	if w.Truncated || slices.ContainsFunc(w.Notes, func(b Note) bool { return b&(NoteSSYDeep|NoteCALDeep) != 0 }) {
		// Some path went unwalked: every reconvergence point may follow
		// every SYNC.
		for i := range k.Instrs {
			if k.Instrs[i].Op == OpSYNC {
				for _, t := range ssys {
					addEdge(i, t)
				}
			}
		}
	} else {
		for _, e := range w.syncs {
			addEdge(int(e[0]), int(e[1]))
		}
	}
	return cfg, nil
}

// BlockOf returns the basic block containing instruction idx.
func (c *CFG) BlockOf(idx int) *Block {
	return c.Blocks[c.blockOf[idx]]
}
