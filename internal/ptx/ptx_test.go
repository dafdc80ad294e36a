package ptx

import (
	"strings"
	"testing"

	"sassi/internal/sass"
)

func TestBuilderTypeChecks(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on type error", name)
			}
		}()
		f()
	}
	b := NewKernel("k")
	u32 := b.ImmU32(1)
	f32 := b.ImmF32(1)
	u64 := b.ImmU64(1)
	pred := b.SetpI(sass.CmpEQ, u32, 0)

	expectPanic("mixed add", func() { b.Add(u32, f32) })
	expectPanic("sel non-pred", func() { b.Sel(u32, u32, u32) })
	expectPanic("index non-u64 base", func() { b.Index(u32, u32, 2) })
	expectPanic("index pred idx", func() { b.Index(u64, pred, 2) })
	expectPanic("ld.global u32 addr", func() { b.LdGlobalU32(u32, 0) })
	expectPanic("ld.shared u64 addr", func() { b.LdSharedU32(u64, 0) })
	expectPanic("cvt.u64 from u64", func() { b.CvtU64(u64) })
	expectPanic("mufu int", func() { b.Rcp(u32) })
	expectPanic("assign mismatch", func() { b.Assign(b.Var(u32), f32) })
	expectPanic("while non-pred", func() {
		b.While(func() Value { return u32 }, func() {})
	})
}

func TestVerifyCatchesErrors(t *testing.T) {
	// Undefined branch label.
	f := NewFunc("k")
	f.Emit(Instr{Op: OpBra, Label: "nowhere"})
	f.Emit(Instr{Op: OpExit})
	if err := f.Verify(); err == nil {
		t.Error("undefined label accepted")
	}
	// Duplicate labels.
	f2 := NewFunc("k")
	f2.Emit(Instr{Op: OpLabel, Label: "a"})
	f2.Emit(Instr{Op: OpLabel, Label: "a"})
	f2.Emit(Instr{Op: OpExit})
	if err := f2.Verify(); err == nil {
		t.Error("duplicate label accepted")
	}
	// Missing exit.
	f3 := NewFunc("k")
	f3.Emit(Instr{Op: OpNop})
	if err := f3.Verify(); err == nil {
		t.Error("missing exit accepted")
	}
	// Unknown parameter.
	f4 := NewFunc("k")
	f4.Emit(Instr{Op: OpLdParam, Param: "ghost", Dst: f4.NewValue(TU32)})
	f4.Emit(Instr{Op: OpExit})
	if err := f4.Verify(); err == nil {
		t.Error("unknown param accepted")
	}
	// 8-byte param into a 32-bit value.
	f5 := NewFunc("k")
	f5.AddParam("p", 8)
	f5.Emit(Instr{Op: OpLdParam, Param: "p", Type: TU32, Dst: f5.NewValue(TU32)})
	f5.Emit(Instr{Op: OpExit})
	if err := f5.Verify(); err == nil {
		t.Error("narrow load of wide param accepted")
	}
}

func TestBuilderAutoExit(t *testing.T) {
	b := NewKernel("k")
	b.ImmU32(1)
	f, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if f.Instrs[len(f.Instrs)-1].Op != OpExit {
		t.Error("Done did not append exit")
	}
}

func TestAllocSharedAlignment(t *testing.T) {
	f := NewFunc("k")
	a := f.AllocShared(3)
	b := f.AllocShared(10)
	if a != 0 || b != 16 {
		t.Errorf("shared offsets = %d, %d", a, b)
	}
	if f.SharedBytes != 26 {
		t.Errorf("total shared = %d", f.SharedBytes)
	}
}

func TestTypeSizes(t *testing.T) {
	if TU32.Size() != 4 || TS32.Size() != 4 || TF32.Size() != 4 {
		t.Error("32-bit sizes wrong")
	}
	if TU64.Size() != 8 || TPred.Size() != 0 {
		t.Error("u64/pred sizes wrong")
	}
}

func TestDumpReadable(t *testing.T) {
	b := NewKernel("k")
	p := b.ParamU64("data")
	i := b.GlobalTidX()
	b.If(b.SetpI(sass.CmpLT, i, 8), func() {
		b.StGlobalU32(b.Index(p, i, 2), 0, i)
	})
	f := b.MustDone()
	dump := f.Dump()
	for _, want := range []string{".entry k", ".param data", "bra", "ssy", "exit"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestForRangeCount(t *testing.T) {
	// Structural check: ForRange emits a loop with head label and backedge.
	b := NewKernel("k")
	b.ForRange(b.ImmU32(0), b.ImmU32(4), func(i Value) {})
	f := b.MustDone()
	branches, labels := 0, 0
	for _, in := range f.Instrs {
		switch in.Op {
		case OpBra:
			branches++
		case OpLabel:
			labels++
		}
	}
	if branches < 2 || labels < 3 {
		t.Errorf("loop structure: %d branches, %d labels", branches, labels)
	}
}

func TestValueIdentity(t *testing.T) {
	f := NewFunc("k")
	a := f.NewValue(TU32)
	b := f.NewValue(TF32)
	if a.ID() == b.ID() {
		t.Error("value ids collide")
	}
	if f.TypeOf(a) != TU32 || f.TypeOf(b) != TF32 {
		t.Error("types lost")
	}
	var zero Value
	if zero.Valid() || f.TypeOf(zero) != TInvalid {
		t.Error("zero value not invalid")
	}
}

// TestCheckAllocatesNothing: the PTX rule set allocates only to report an
// error, so the Builder, the parser and Verify pay nothing for it on valid
// code.
func TestCheckAllocatesNothing(t *testing.T) {
	b := NewKernel("k")
	p := b.ParamU64("data")
	i := b.GlobalTidX()
	b.If(b.SetpI(sass.CmpLT, i, 8), func() {
		a := b.Index(p, i, 2)
		b.StGlobalF32(a, 0, b.Fma(b.LdGlobalF32(a, 0), b.CvtF32(i), b.ImmF32(1)))
		b.AtomAddGlobal(a, 4, b.Shfl(b.AsU32(b.ImmF32(2)), b.LaneID()))
	})
	f := b.MustDone()
	if n := testing.AllocsPerRun(10, func() {
		for i := range f.Instrs {
			if f.check(&f.Instrs[i]) != nil {
				t.Fatal("valid instruction refused")
			}
		}
	}); n != 0 {
		t.Errorf("check allocated %v times per kernel", n)
	}
}
