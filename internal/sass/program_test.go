package sass

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParamLayout(t *testing.T) {
	k := &Kernel{Name: "k"}
	off1 := k.AddParam("ptr", 8)
	off2 := k.AddParam("n", 4)
	off3 := k.AddParam("ptr2", 8) // must realign to 8
	if off1 != ParamBase {
		t.Errorf("first param offset = %#x, want %#x", off1, ParamBase)
	}
	if off2 != ParamBase+8 {
		t.Errorf("second param offset = %#x", off2)
	}
	if off3%8 != 0 || off3 != ParamBase+16 {
		t.Errorf("third param misaligned: %#x", off3)
	}
	if got, ok := k.ParamOffset("n"); !ok || got != off2 {
		t.Errorf("ParamOffset(n) = %v,%v", got, ok)
	}
	if _, ok := k.ParamOffset("missing"); ok {
		t.Error("missing param resolved")
	}
}

func TestResolveLabelsError(t *testing.T) {
	k := &Kernel{Name: "k", Labels: map[string]int{},
		Instrs: []Instruction{New(OpBRA, nil, []Operand{Label("nowhere")})}}
	if err := k.ResolveLabels(); err == nil {
		t.Error("dangling label not reported")
	}
}

func TestValidateCatchesBadInstr(t *testing.T) {
	cases := []struct {
		name string
		k    *Kernel
	}{
		{"empty", &Kernel{Name: "k"}},
		{"no exit", &Kernel{Name: "k", Instrs: []Instruction{New(OpNOP, nil, nil)}}},
		{"bad label", &Kernel{Name: "k", Instrs: []Instruction{
			{Guard: Always, Op: OpBRA, Srcs: []Operand{{Kind: OpdLabel, Imm: 99}}},
			New(OpEXIT, nil, nil),
		}}},
		{"bad pred", &Kernel{Name: "k", Instrs: []Instruction{
			New(OpISETP, []Operand{{Kind: OpdPred, Reg: 9}}, []Operand{R(0), R(1), P(PT)}),
			New(OpEXIT, nil, nil),
		}}},
	}
	for _, c := range cases {
		if err := c.k.Validate(); err == nil {
			t.Errorf("%s: validation passed unexpectedly", c.name)
		}
	}
	good := Kernel{Name: "k", Instrs: []Instruction{New(OpEXIT, nil, nil)}}
	if err := good.Validate(); err != nil {
		t.Errorf("good kernel rejected: %v", err)
	}
}

func TestInsOffsetRoundtrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		if IndexOfOffset(InsOffset(i)) != i {
			t.Fatalf("offset roundtrip failed at %d", i)
		}
	}
}

func TestDisassembleContainsLabelsAndParams(t *testing.T) {
	k := &Kernel{Name: "k", Labels: map[string]int{"loop": 0},
		Instrs: []Instruction{New(OpEXIT, nil, nil)}}
	k.AddParam("x", 4)
	dis := k.Disassemble()
	for _, want := range []string{".kernel k", ".param x", "loop:", "EXIT"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestProgramHandlers(t *testing.T) {
	p := NewProgram()
	id1 := p.InternHandler("h1")
	id2 := p.InternHandler("h2")
	if id1 == id2 {
		t.Error("distinct symbols share an id")
	}
	if p.InternHandler("h1") != id1 {
		t.Error("intern not idempotent")
	}
}

func TestProgramKernelLookup(t *testing.T) {
	p := NewProgram()
	p.AddKernel(&Kernel{Name: "a"})
	p.AddKernel(&Kernel{Name: "b"})
	if k, ok := p.Kernel("b"); !ok || k.Name != "b" {
		t.Error("kernel lookup failed")
	}
	if _, ok := p.Kernel("c"); ok {
		t.Error("phantom kernel found")
	}
}

func TestLabelAtSorted(t *testing.T) {
	k := &Kernel{Name: "k", Labels: map[string]int{"zz": 0, "aa": 0, "mm": 1}}
	got := k.LabelAt(0)
	if len(got) != 2 || got[0] != "aa" || got[1] != "zz" {
		t.Errorf("LabelAt = %v", got)
	}
}

// TestLoweredFollowsInstrs: the cache slot builds once per instruction
// stream, rebuilds when Instrs is replaced under the same *Kernel (new
// array of the same length, or a different length), serializes concurrent
// first users onto one build, and is not inherited by a Clone.
func TestLoweredFollowsInstrs(t *testing.T) {
	k := &Kernel{Name: "k", Instrs: []Instruction{New(OpNOP, nil, nil), New(OpEXIT, nil, nil)}}
	var builds atomic.Int32
	build := func(k *Kernel) any {
		builds.Add(1)
		return &k.Instrs[0] // any value tied to the array it was built from
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.Lowered(build)
		}()
	}
	wg.Wait()
	first := k.Lowered(build)
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one instruction stream", builds.Load())
	}

	k.Instrs = append([]Instruction(nil), k.Instrs...) // same length, new array
	if v := k.Lowered(build); v == first || builds.Load() != 2 {
		t.Errorf("replaced array not noticed: %d builds", builds.Load())
	}
	k.Instrs = k.Instrs[:1] // same array, new length
	if k.Lowered(build); builds.Load() != 3 {
		t.Errorf("changed length not noticed: %d builds", builds.Load())
	}
	if c := k.Clone(); c.Lowered(build) != any(&c.Instrs[0]) || builds.Load() != 4 {
		t.Errorf("clone did not build its own value: %d builds", builds.Load())
	}
	if k.Lowered(build); builds.Load() != 4 {
		t.Errorf("the clone's build disturbed the original: %d builds", builds.Load())
	}
}
