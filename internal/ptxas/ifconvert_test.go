package ptxas_test

import (
	"strings"
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
)

// buildGuardedStore returns a kernel with a short guarded store, the
// canonical if-conversion candidate.
func buildGuardedStore(t *testing.T, opts ptxas.Options) *sass.Kernel {
	t.Helper()
	b := ptx.NewKernel("k")
	p := b.ParamU64("p")
	i := b.GlobalTidX()
	cond := b.SetpI(sass.CmpLT, i, 10)
	b.If(cond, func() {
		b.StGlobalU32(b.Index(p, i, 2), 0, i)
	})
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Kernels[0]
}

// TestIfConvertPredicatesShortBranches: the backend turns a short If into
// predicated instructions (the paper's "@P0 ST.E" idiom), removing the
// SSY/BRA/SYNC triple.
func TestIfConvertPredicatesShortBranches(t *testing.T) {
	k := buildGuardedStore(t, ptxas.Options{})
	dis := k.Disassemble()
	if strings.Contains(dis, "SSY") || strings.Contains(dis, "SYNC") {
		t.Errorf("if-conversion did not fire:\n%s", dis)
	}
	guarded := 0
	for i := range k.Instrs {
		if !k.Instrs[i].Guard.IsAlways() {
			guarded++
		}
	}
	if guarded == 0 {
		t.Error("no predicated instructions after if-conversion")
	}
}

// TestIfConvertKeepsLongBranch: a body longer than the if-conversion
// limit keeps the divergence idiom.
func TestIfConvertKeepsLongBranch(t *testing.T) {
	k := buildLongGuardedStore(t)
	dis := k.Disassemble()
	if !strings.Contains(dis, "SSY") || !strings.Contains(dis, "SYNC") {
		t.Errorf("expected SSY/SYNC around a long body:\n%s", dis)
	}
}

// buildLongGuardedStore is buildGuardedStore with more stores in the body
// than if-conversion predicates.
func buildLongGuardedStore(t *testing.T) *sass.Kernel {
	t.Helper()
	b := ptx.NewKernel("k")
	p := b.ParamU64("p")
	i := b.GlobalTidX()
	b.If(b.SetpI(sass.CmpLT, i, 10), func() {
		for off := int64(0); off < 9; off++ {
			b.StGlobalU32(p, off*4, i)
		}
	})
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog.Kernels[0]
}
