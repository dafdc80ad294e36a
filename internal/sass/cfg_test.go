package sass

import (
	"fmt"
	"slices"
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

// TestCFGSyncEdges: a SYNC's edges go to the reconvergence targets the
// control-stack walk finds on top of the divergence stack there, and
// nowhere else; a walk that ran out of states sends every SYNC to every
// SSY target.
func TestCFGSyncEdges(t *testing.T) {
	iadd := func(r uint8) Instruction { return New(OpIADD, []Operand{R(r)}, []Operand{R(r), Imm(1)}) }
	bra := func(l string, p uint8) Instruction {
		return New(OpBRA, nil, []Operand{Label(l)}).WithGuard(PredGuard{Reg: p})
	}
	ssy := func(l string) Instruction { return New(OpSSY, nil, []Operand{Label(l)}) }
	cal := func(l string) Instruction { return New(OpCAL, nil, []Operand{Label(l)}) }
	sync, exit, ret := New(OpSYNC, nil, nil), New(OpEXIT, nil, nil), New(OpRET, nil, nil)

	// A chain of 18 subroutines, each calling the next from two call
	// sites, has 2^18 call stacks at its deepest SYNC: past the walk's
	// state budget.
	callTree := func() (map[string]int, []Instruction) {
		labels := map[string]int{"a": 4}
		instrs := []Instruction{ssy("a"), cal("f1"), cal("f1"), sync, exit}
		for fn := 1; fn <= 18; fn++ {
			labels[fmt.Sprint("f", fn)] = len(instrs)
			if fn < 18 {
				instrs = append(instrs, cal(fmt.Sprint("f", fn+1)), cal(fmt.Sprint("f", fn+1)), ret)
				continue
			}
			labels["b"] = len(instrs) + 2
			instrs = append(instrs, ssy("b"), sync, ret)
		}
		return labels, instrs
	}
	treeLabels, treeInstrs := callTree()
	deepSync := treeLabels["b"] - 1

	for _, tc := range []struct {
		name      string
		labels    map[string]int
		instrs    []Instruction
		want      map[int][]int // SYNC -> the starts of its successor blocks
		truncated bool
	}{
		{
			name:   "then-arm SYNC goes to the reconvergence point, not into the else-arm",
			labels: map[string]int{"else": 4, "reconv": 6},
			instrs: []Instruction{
				ssy("reconv"), bra("else", 0), iadd(1), sync, // 0-3
				iadd(2), sync, // 4-5 else
				exit, // 6 reconv
			},
			want: map[int][]int{3: {6}, 5: {6}},
		},
		{
			name:   "nested SSY",
			labels: map[string]int{"isync": 4, "inner": 6, "osync": 8, "outer": 9},
			instrs: []Instruction{
				ssy("outer"), bra("osync", 0), ssy("inner"), bra("isync", 1), // 0-3
				sync,          // 4 isync: pops inner
				iadd(2),       // 5 unreachable
				iadd(1), sync, // 6-7 inner: pops outer
				sync, // 8 osync: pops outer
				exit, // 9 outer
			},
			want: map[int][]int{4: {6}, 7: {9}, 8: {9}},
		},
		{
			name:   "SSY inside a loop body",
			labels: map[string]int{"head": 0, "s": 3, "r": 5, "done": 7},
			instrs: []Instruction{
				bra("done", 0), ssy("r"), bra("s", 1), // 0-2 head
				sync,                                               // 3 s: pops r, once per iteration
				iadd(2),                                            // 4 unreachable
				iadd(1), New(OpBRA, nil, []Operand{Label("head")}), // 5-6 r
				exit, // 7 done
			},
			want: map[int][]int{3: {5}},
		},
		{
			name:   "SYNC with an empty stack has no successor",
			instrs: []Instruction{sync, exit},
			want:   map[int][]int{0: nil},
		},
		{
			name:      "a truncated walk sends every SYNC to every SSY target",
			labels:    treeLabels,
			instrs:    treeInstrs,
			want:      map[int][]int{3: {4, treeLabels["b"]}, deepSync: {4, treeLabels["b"]}},
			truncated: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			labels := tc.labels
			if labels == nil {
				labels = map[string]int{}
			}
			cfg, err := BuildCFG(buildKernel(t, labels, tc.instrs...))
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Control.Truncated != tc.truncated {
				t.Errorf("walk truncated = %v, want %v", cfg.Control.Truncated, tc.truncated)
			}
			for s, want := range tc.want {
				b := cfg.BlockOf(s)
				if b.End != s+1 {
					t.Fatalf("SYNC %d does not end its block [%d,%d)", s, b.Start, b.End)
				}
				var got []int
				for _, succ := range b.Succs {
					got = append(got, cfg.Blocks[succ].Start)
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("SYNC %d goes to %v, want %v", s, got, want)
				}
			}
		})
	}
}
