package sim_test

import (
	"math"
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// buildVecAdd constructs: out[i] = a[i] + b[i] for i < n.
func buildVecAdd(t *testing.T) *sass.Program {
	t.Helper()
	b := ptx.NewKernel("vecadd")
	a := b.ParamU64("a")
	bb := b.ParamU64("b")
	out := b.ParamU64("out")
	n := b.ParamU32("n")
	i := b.GlobalTidX()
	inRange := b.Setp(sass.CmpLT, i, n)
	b.If(inRange, func() {
		av := b.LdGlobalF32(b.Index(a, i, 2), 0)
		bv := b.LdGlobalF32(b.Index(bb, i, 2), 0)
		b.StGlobalF32(b.Index(out, i, 2), 0, b.Add(av, bv))
	})
	b.Exit()
	f, err := b.Done()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := ptx.NewModule()
	m.Add(f)
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestVecAddEndToEnd(t *testing.T) {
	prog := buildVecAdd(t)
	dev := sim.NewDevice(sim.MiniGPU())

	const n = 1000
	aBuf := dev.Alloc(4 * n)
	bBuf := dev.Alloc(4 * n)
	oBuf := dev.Alloc(4 * n)
	for i := 0; i < n; i++ {
		dev.Global.Write32(aBuf+uint64(4*i), math.Float32bits(float32(i)))
		dev.Global.Write32(bBuf+uint64(4*i), math.Float32bits(float32(2*i)))
	}
	stats, err := dev.Launch(prog, "vecadd", sim.LaunchParams{
		Grid:  sim.D1((n + 127) / 128),
		Block: sim.D1(128),
		Args:  []uint64{aBuf, bBuf, oBuf, n},
	})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if stats.Threads != 1024 {
		t.Errorf("threads = %d, want 1024", stats.Threads)
	}
	if stats.WarpInstrs == 0 || stats.Cycles == 0 {
		t.Errorf("expected nonzero instruction and cycle counts: %+v", stats)
	}
	for i := 0; i < n; i++ {
		bits, err := dev.Global.Read32(oBuf + uint64(4*i))
		if err != nil {
			t.Fatalf("read out[%d]: %v", i, err)
		}
		got := math.Float32frombits(bits)
		want := float32(3 * i)
		if got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestVecAddDisassembles(t *testing.T) {
	prog := buildVecAdd(t)
	k, _ := prog.Kernel("vecadd")
	dis := k.Disassemble()
	if len(dis) == 0 {
		t.Fatal("empty disassembly")
	}
	t.Logf("vecadd SASS:\n%s", dis)
}
