package ptxas

import (
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/sass"
)

// deadAtomicFunc builds a kernel with two global atomic adds: one whose
// fetched old value is stored (live fetch) and one whose result is never
// read (dead fetch).
func deadAtomicFunc(t *testing.T) *ptx.Func {
	t.Helper()
	b := ptx.NewKernel("k")
	acc := b.ParamU64("acc")
	out := b.ParamU64("out")
	old := b.AtomAddGlobal(acc, 0, b.TidX()) // live: old value stored below
	b.AtomAddGlobal(acc, 4, b.TidX())        // dead: fetch never read
	b.StGlobalU32(out, 0, old)
	return b.MustDone()
}

func countAtomDsts(f *ptx.Func) (withDst, without int) {
	for i := range f.Instrs {
		if f.Instrs[i].Op != ptx.OpAtom {
			continue
		}
		if f.Instrs[i].Dst.Valid() {
			withDst++
		} else {
			without++
		}
	}
	return
}

// TestReduceDeadAtomics pins the determinism fix the differential oracle
// forced: an atomic's fetched old value is whatever the hardware sequenced
// at that instant, so a dead fetch register carries scheduler-dependent
// bits to kernel exit. Dead-fetch atomics must lose their destination
// (becoming no-return reductions); live fetches must keep theirs.
func TestReduceDeadAtomics(t *testing.T) {
	f := deadAtomicFunc(t)
	reduceDeadAtomics(f, newValueStats(f))
	withDst, without := countAtomDsts(f)
	if withDst != 1 || without != 1 {
		t.Fatalf("after reduceDeadAtomics: %d atomics keep a dst, %d dropped; want 1 and 1",
			withDst, without)
	}
}

// TestReduceDeadAtomicsKeepsCAS: compare-and-swap keeps its destination
// even when unread — its result feeds retry loops and the no-return form
// does not exist for CAS.
func TestReduceDeadAtomicsKeepsCAS(t *testing.T) {
	f := deadAtomicFunc(t)
	for i := range f.Instrs {
		if f.Instrs[i].Op == ptx.OpAtom {
			f.Instrs[i].Atom = sass.AtomCAS
		}
	}
	reduceDeadAtomics(f, newValueStats(f))
	withDst, without := countAtomDsts(f)
	if withDst != 2 || without != 0 {
		t.Fatalf("after reduceDeadAtomics on CAS: %d keep a dst, %d dropped; want 2 and 0",
			withDst, without)
	}
}

// TestCompileLowersDeadAtomicWithoutDst checks the end-to-end effect: the
// compiled SASS for a dead-fetch atomic carries no destination register,
// while the live-fetch atomic keeps one.
func TestCompileLowersDeadAtomicWithoutDst(t *testing.T) {
	m := ptx.NewModule()
	m.Add(deadAtomicFunc(t))
	prog, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var withDst, without int
	for i := range prog.Kernels[0].Instrs {
		in := &prog.Kernels[0].Instrs[i]
		if in.Op != sass.OpATOM && in.Op != sass.OpATOMS && in.Op != sass.OpRED {
			continue
		}
		if len(in.Dsts) > 0 {
			withDst++
		} else {
			without++
		}
	}
	if withDst != 1 || without != 1 {
		t.Fatalf("compiled kernel: %d atomics with dst, %d without; want 1 and 1", withDst, without)
	}
}
