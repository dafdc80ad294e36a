package ptxas_test

import (
	"strings"
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// compileOne compiles a single builder kernel.
func compileOne(t *testing.T, b *ptx.Builder, opts ptxas.Options) *sass.Kernel {
	t.Helper()
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Kernels[0]
}

// runKernel executes a compiled kernel with one warp and returns the
// device + an output buffer written by the kernel.
func runKernel(t *testing.T, k *sass.Kernel, threads int) (*sim.Device, uint64) {
	t.Helper()
	prog := sass.NewProgram()
	prog.AddKernel(k)
	dev := sim.NewDevice(sim.MiniGPU())
	out := dev.Alloc(4096)
	if _, err := dev.Launch(prog, k.Name, sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(threads), Args: []uint64{out},
	}); err != nil {
		t.Fatal(err)
	}
	return dev, out
}

func TestRegisterPairAlignment(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	// Several live u64s at once force pair allocations.
	a1 := b.Index(out, b.TidX(), 2)
	a2 := b.Index(out, b.AddI(b.TidX(), 32), 2)
	b.StGlobalU32(a1, 0, b.TidX())
	b.StGlobalU32(a2, 0, b.TidX())
	k := compileOne(t, b, ptxas.Options{})
	// Verify every .E memory base register is even.
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if !in.Mods.E {
			continue
		}
		for _, s := range in.Srcs {
			if s.Kind == sass.OpdMem && s.Reg != sass.RZ && s.Reg%2 != 0 {
				t.Errorf("odd base register R%d for 64-bit ref in %s", s.Reg, in.String())
			}
		}
	}
	dev, out2 := runKernel(t, k, 32)
	for lane := 0; lane < 32; lane++ {
		v, _ := dev.Global.Read32(out2 + uint64(4*lane))
		if v != uint32(lane) {
			t.Fatalf("lane %d value %d", lane, v)
		}
		v2, _ := dev.Global.Read32(out2 + uint64(4*(lane+32)))
		if v2 != uint32(lane) {
			t.Fatalf("lane %d second value %d", lane, v2)
		}
	}
}

func TestSPIsNeverAllocated(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	// Create many simultaneously live values to pressure the allocator.
	var vals []ptx.Value
	for i := 0; i < 40; i++ {
		vals = append(vals, b.AddI(b.TidX(), int64(i)))
	}
	sum := b.Var(b.ImmU32(0))
	for _, v := range vals {
		b.Assign(sum, b.Add(sum, v))
	}
	b.StGlobalU32(out, 0, sum)
	k := compileOne(t, b, ptxas.Options{})
	for i := range k.Instrs {
		for _, d := range k.Instrs[i].Dsts {
			if d.Kind == sass.OpdReg && d.Reg == sass.SP {
				t.Fatalf("allocator handed out the stack pointer: %s", k.Instrs[i].String())
			}
		}
	}
}

// TestOutOfRegistersIsError: more simultaneously live values than the
// register file holds is a compile error, since the backend has no spiller.
func TestOutOfRegistersIsError(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	var vals []ptx.Value
	for i := 0; i < sass.NumGPR+5; i++ {
		vals = append(vals, b.AddI(b.TidX(), int64(i)))
	}
	sum := b.Var(b.ImmU32(0))
	for _, v := range vals {
		b.Assign(sum, b.Add(sum, v))
	}
	b.StGlobalU32(out, 0, sum)
	m := ptx.NewModule()
	m.Add(b.MustDone())
	_, err := ptxas.Compile(m, ptxas.Options{})
	if err == nil || !strings.Contains(err.Error(), "out of registers") {
		t.Errorf("err = %v, want out of registers", err)
	}
}

func TestPredicateExhaustionIsError(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	// 8 simultaneously live predicates exceed the 7 allocatable.
	var preds []ptx.Value
	for i := 0; i < 8; i++ {
		preds = append(preds, b.SetpI(sass.CmpLT, b.TidX(), int64(i)))
	}
	acc := b.Var(b.ImmU32(0))
	for _, p := range preds {
		acc = b.Sel(p, b.AddI(acc, 1), acc)
	}
	b.StGlobalU32(out, 0, acc)
	m := ptx.NewModule()
	m.Add(b.MustDone())
	if _, err := ptxas.Compile(m, ptxas.Options{}); err == nil {
		t.Error("predicate exhaustion not reported")
	}
}

func TestLoopCarriedValueSurvivesRegalloc(t *testing.T) {
	// A value defined before a loop, used after it, must not be clobbered
	// by loop-local values.
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	precious := b.MulI(b.TidX(), 1000)
	i := b.Var(b.ImmU32(0))
	acc := b.Var(b.ImmU32(0))
	b.While(func() ptx.Value { return b.SetpI(sass.CmpLT, i, 5) }, func() {
		b.Assign(acc, b.Add(acc, i))
		b.Assign(i, b.AddI(i, 1))
	})
	b.StGlobalU32(b.Index(out, b.TidX(), 2), 0, b.Add(precious, acc))
	k := compileOne(t, b, ptxas.Options{})
	dev, buf := runKernel(t, k, 32)
	for lane := 0; lane < 32; lane++ {
		v, _ := dev.Global.Read32(buf + uint64(4*lane))
		want := uint32(lane*1000 + 10)
		if v != want {
			t.Fatalf("lane %d = %d, want %d", lane, v, want)
		}
	}
}

func TestSubtractionForms(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	x := b.TidX()
	r1 := b.Sub(b.ImmU32(100), x) // reg-reg
	r2 := b.SubI(x, 1)            // reg-imm
	b.StGlobalU32(b.Index(out, x, 2), 0, b.Add(r1, r2))
	k := compileOne(t, b, ptxas.Options{})
	dev, buf := runKernel(t, k, 32)
	for lane := 0; lane < 32; lane++ {
		v, _ := dev.Global.Read32(buf + uint64(4*lane))
		want := uint32(100-lane) + uint32(lane-1)
		if v != want {
			t.Fatalf("lane %d = %d, want %d", lane, v, want)
		}
	}
}

func TestSignedCvt64SignExtends(t *testing.T) {
	// CvtU64 of a signed -4 must sign-extend, so out+68 + sext(-4) lands
	// at out+64.
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	minusFour := b.AsS32(b.SubI(b.ImmU32(0), 4))
	wide := b.CvtU64(minusFour)
	addr := b.Add(b.AddI(out, 68), wide)
	b.StGlobalU32(addr, 0, b.ImmU32(7))
	k := compileOne(t, b, ptxas.Options{})
	dev, buf := runKernel(t, k, 1)
	if v, _ := dev.Global.Read32(buf + 64); v != 7 {
		t.Fatalf("store landed elsewhere; out[64] = %d (sign extension broken)", v)
	}
}

// DCE must not delete memory operations.
func TestDCEKeepsLoads(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	v := b.LdGlobalU32(out, 0) // result unused, but a load may fault
	_ = v
	b.StGlobalU32(out, 0, b.TidX())
	k := compileOne(t, b, ptxas.Options{})
	loads := 0
	for i := range k.Instrs {
		if k.Instrs[i].Op == sass.OpLDG {
			loads++
		}
	}
	if loads != 1 {
		t.Errorf("DCE removed (or duplicated) a load: %d", loads)
	}
}

// Copy propagation must not touch mutable Vars.
func TestCopyPropPreservesMutableVars(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	v := b.Var(b.ImmU32(1))
	cpy := b.Var(v) // snapshot before mutation
	b.Assign(v, b.ImmU32(2))
	b.StGlobalU32(out, 0, b.Add(v, cpy)) // must be 2+1=3
	k := compileOne(t, b, ptxas.Options{})
	dev, buf := runKernel(t, k, 1)
	got, _ := dev.Global.Read32(buf)
	if got != 3 {
		t.Fatalf("got %d, want 3 (copy-prop broke Var snapshot)", got)
	}
}
