package sass

import "fmt"

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
type CFG struct {
	Kernel *Kernel
	Blocks []*Block
	// blockOf maps an instruction index to its containing block ID.
	blockOf []int
}

// leadersOf marks basic-block leader instructions.
func leadersOf(k *Kernel) []bool {
	n := len(k.Instrs)
	lead := make([]bool, n+1)
	if n > 0 {
		lead[0] = true
	}
	for i := range k.Instrs {
		in := &k.Instrs[i]
		switch in.Op {
		case OpBRA:
			if t, ok := in.BranchTarget(); ok && t.Kind == OpdLabel {
				if t.Imm >= 0 && int(t.Imm) <= n {
					lead[t.Imm] = true
				}
			}
			if i+1 <= n {
				lead[i+1] = true
			}
		case OpEXIT, OpRET, OpBRK:
			if i+1 <= n {
				lead[i+1] = true
			}
		case OpSSY, OpPBK:
			// SSY/PBK targets are reconvergence points: block leaders.
			if t, ok := in.BranchTarget(); ok && t.Kind == OpdLabel {
				if t.Imm >= 0 && int(t.Imm) <= n {
					lead[t.Imm] = true
				}
			}
		case OpSYNC:
			// SYNC may transfer control (pop to the reconvergence point).
			if i+1 <= n {
				lead[i+1] = true
			}
		case OpCAL:
			// Calls return to the next instruction; treat as fallthrough
			// but keep the callee boundary clean.
			if t, ok := in.BranchTarget(); ok && t.Kind == OpdLabel {
				if t.Imm >= 0 && int(t.Imm) <= n {
					lead[t.Imm] = true
				}
			}
			if i+1 <= n {
				lead[i+1] = true
			}
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
	blockAt := func(idx int) (int, bool) {
		if idx < 0 || idx >= n {
			return 0, false
		}
		return cfg.blockOf[idx], true
	}
	addEdge := func(from, to int) {
		for _, s := range cfg.Blocks[from].Succs {
			if s == to {
				return
			}
		}
		cfg.Blocks[from].Succs = append(cfg.Blocks[from].Succs, to)
		cfg.Blocks[to].Preds = append(cfg.Blocks[to].Preds, from)
	}
	for _, b := range cfg.Blocks {
		last := &k.Instrs[b.End-1]
		switch last.Op {
		case OpBRA:
			if t, ok := last.BranchTarget(); ok && t.Kind == OpdLabel {
				if tb, ok := blockAt(int(t.Imm)); ok {
					addEdge(b.ID, tb)
				}
			}
			if !last.Guard.IsAlways() {
				// Conditional: may fall through.
				if fb, ok := blockAt(b.End); ok {
					addEdge(b.ID, fb)
				}
			}
		case OpEXIT:
			// No successors when unconditional. A guarded EXIT only
			// retires the lanes whose guard passes; the remaining lanes
			// fall through, so the next block is a real successor (the
			// simulator advances the PC whenever Active is non-empty).
			if !last.Guard.IsAlways() {
				if fb, ok := blockAt(b.End); ok {
					addEdge(b.ID, fb)
				}
			}
		case OpRET:
			// No successors: the return target lives on the call stack,
			// and the scheduler pops it regardless of the guard.
		case OpBRK:
			// Break transfers to the PBK target; conservatively treat
			// as also possibly falling through for liveness purposes.
			if fb, ok := blockAt(b.End); ok {
				addEdge(b.ID, fb)
			}
		case OpSYNC:
			// Reconvergence pop: control continues either at the next
			// instruction or at a deferred path. For liveness we add the
			// fallthrough edge; divergent-path values are kept live by
			// the SSY-target edges added when the branch was processed.
			if fb, ok := blockAt(b.End); ok {
				addEdge(b.ID, fb)
			}
		default:
			if fb, ok := blockAt(b.End); ok {
				addEdge(b.ID, fb)
			}
		}
		// SSY anywhere in the block makes its reconvergence target
		// reachable from this block (a deferred path may resume there).
		for j := b.Start; j < b.End; j++ {
			in := &k.Instrs[j]
			if in.Op == OpSSY || in.Op == OpPBK {
				if t, ok := in.BranchTarget(); ok && t.Kind == OpdLabel {
					if tb, ok := blockAt(int(t.Imm)); ok {
						addEdge(b.ID, tb)
					}
				}
			}
		}
	}
	return cfg, nil
}

// BlockOf returns the basic block containing instruction idx.
func (c *CFG) BlockOf(idx int) *Block {
	return c.Blocks[c.blockOf[idx]]
}
