package sass

import (
	"testing"
	"testing/quick"
)

// buildKernel assembles a kernel from instructions and resolves labels.
func buildKernel(t *testing.T, labels map[string]int, instrs ...Instruction) *Kernel {
	t.Helper()
	k := &Kernel{Name: "t", Instrs: instrs, Labels: labels}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

// ifKernel: the canonical SSY/@!P BRA/SYNC diamond.
func ifKernel(t *testing.T) *Kernel {
	return buildKernel(t,
		map[string]int{"sync": 4, "reconv": 5},
		New(OpISETP, []Operand{P(0)}, []Operand{R(0), Imm(1), P(PT)}),                     // 0
		New(OpSSY, nil, []Operand{Label("reconv")}),                                       // 1
		New(OpBRA, nil, []Operand{Label("sync")}).WithGuard(PredGuard{Reg: 0, Neg: true}), // 2
		New(OpIADD, []Operand{R(1)}, []Operand{R(1), Imm(1)}),                             // 3 (then body)
		New(OpSYNC, nil, nil), // 4
		New(OpEXIT, nil, nil), // 5
	)
}

func TestCFGIfDiamond(t *testing.T) {
	cfg, err := BuildCFG(ifKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	// Blocks: [0..2] (ends with BRA), [3..3] wait—the SSY target also splits.
	if len(cfg.Blocks) < 3 {
		t.Fatalf("expected >=3 blocks, got %d", len(cfg.Blocks))
	}
	// Block containing the conditional BRA has two successors.
	b := cfg.BlockOf(2)
	if len(b.Succs) < 2 {
		t.Errorf("branch block successors = %v, want >= 2", b.Succs)
	}
	// Exit block has none.
	exit := cfg.BlockOf(5)
	if len(exit.Succs) != 0 {
		t.Errorf("exit block successors = %v", exit.Succs)
	}
}

func TestCFGLoop(t *testing.T) {
	k := buildKernel(t,
		map[string]int{"head": 1, "sync": 4, "exit": 5},
		New(OpSSY, nil, []Operand{Label("exit")}),                                         // 0
		New(OpISETP, []Operand{P(0)}, []Operand{R(0), Imm(10), P(PT)}),                    // 1 head
		New(OpBRA, nil, []Operand{Label("sync")}).WithGuard(PredGuard{Reg: 0, Neg: true}), // 2
		New(OpBRA, nil, []Operand{Label("head")}),                                         // 3 backedge
		New(OpSYNC, nil, nil),                                                             // 4
		New(OpEXIT, nil, nil),                                                             // 5
	)
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	// The backedge block's successor must be the loop head's block.
	back := cfg.BlockOf(3)
	headBlock := cfg.BlockOf(1).ID
	found := false
	for _, s := range back.Succs {
		if s == headBlock {
			found = true
		}
	}
	if !found {
		t.Errorf("backedge block succs = %v, want to include %d", back.Succs, headBlock)
	}
	// Preds of head include both entry and backedge blocks.
	if len(cfg.Blocks[headBlock].Preds) < 2 {
		t.Errorf("loop head preds = %v, want >= 2", cfg.Blocks[headBlock].Preds)
	}
}

func TestCFGBlockOfCoversAll(t *testing.T) {
	k := ifKernel(t)
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range k.Instrs {
		b := cfg.BlockOf(i)
		if i < b.Start || i >= b.End {
			t.Errorf("instr %d not inside its block [%d,%d)", i, b.Start, b.End)
		}
	}
}

func TestCFGEdgesAreSymmetricQuick(t *testing.T) {
	// Property: every successor edge has a matching predecessor edge.
	check := func(k *Kernel) bool {
		cfg, err := BuildCFG(k)
		if err != nil {
			return true // not a CFG property failure
		}
		for _, b := range cfg.Blocks {
			for _, s := range b.Succs {
				ok := false
				for _, p := range cfg.Blocks[s].Preds {
					if p == b.ID {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	f := func(branchAt, target uint8) bool {
		n := 8
		k := &Kernel{Name: "q", Labels: map[string]int{}}
		for i := 0; i < n; i++ {
			k.Instrs = append(k.Instrs, New(OpIADD, []Operand{R(0)}, []Operand{R(0), Imm(1)}))
		}
		k.Instrs = append(k.Instrs, New(OpEXIT, nil, nil))
		bi := int(branchAt) % n
		ti := int(target) % (n + 1)
		k.Instrs[bi] = New(OpBRA, nil, []Operand{Label("t")}).WithGuard(PredGuard{Reg: 0})
		k.Labels["t"] = ti
		if err := k.ResolveLabels(); err != nil {
			return true
		}
		return check(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
