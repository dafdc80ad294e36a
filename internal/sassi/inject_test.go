package sassi_test

import (
	"math"
	"testing"

	"sassi/internal/device"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// buildVecAdd returns a compiled out[i] = a[i]+b[i] program.
func buildVecAdd(t *testing.T) *sass.Program {
	t.Helper()
	b := ptx.NewKernel("vecadd")
	a := b.ParamU64("a")
	bb := b.ParamU64("b")
	out := b.ParamU64("out")
	n := b.ParamU32("n")
	i := b.GlobalTidX()
	b.If(b.Setp(sass.CmpLT, i, n), func() {
		av := b.LdGlobalF32(b.Index(a, i, 2), 0)
		bv := b.LdGlobalF32(b.Index(bb, i, 2), 0)
		b.StGlobalF32(b.Index(out, i, 2), 0, b.Add(av, bv))
	})
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func runVecAdd(t *testing.T, dev *sim.Device, prog *sass.Program, n int) *sim.KernelStats {
	t.Helper()
	aBuf := dev.Alloc(uint64(4*n), "a")
	bBuf := dev.Alloc(uint64(4*n), "b")
	oBuf := dev.Alloc(uint64(4*n), "out")
	for i := 0; i < n; i++ {
		dev.Global.Write32(aBuf+uint64(4*i), math.Float32bits(float32(i)))
		dev.Global.Write32(bBuf+uint64(4*i), math.Float32bits(float32(i)))
	}
	stats, err := dev.Launch(prog, "vecadd", sim.LaunchParams{
		Grid: sim.D1((n + 63) / 64), Block: sim.D1(64),
		Args: []uint64{aBuf, bBuf, oBuf, uint64(n)},
	})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	for i := 0; i < n; i++ {
		bits, _ := dev.Global.Read32(oBuf + uint64(4*i))
		if got, want := math.Float32frombits(bits), float32(2*i); got != want {
			t.Fatalf("out[%d] = %v, want %v (instrumentation corrupted results)", i, got, want)
		}
	}
	return stats
}

// TestOpcountHandler reproduces the paper's Figure 3: a handler before
// every instruction categorizing it into overlapping classes with
// device-memory atomics.
func TestOpcountHandler(t *testing.T) {
	prog := buildVecAdd(t)
	if err := sassi.Instrument(prog, sassi.Options{
		Where:         sassi.BeforeAll,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "sassi_before_handler",
	}); err != nil {
		t.Fatalf("instrument: %v", err)
	}

	dev := sim.NewDevice(sim.MiniGPU())
	counters := dev.Alloc(7*8, "dynamic_instr_counts")

	rt := sassi.NewRuntime(prog)
	rt.MustRegister(&sassi.Handler{
		Name: "sassi_before_handler",
		What: sassi.PassMemoryInfo,
		Fn: perLane(func(c device.Lane, args sassi.HandlerArgs) {
			bp := args.BP
			if bp.IsMem() {
				c.AtomicAdd64(counters+0*8, 1)
				if args.MP != nil && args.MP.Width() > 4 {
					c.AtomicAdd64(counters+1*8, 1)
				}
			}
			if bp.IsControlXfer() {
				c.AtomicAdd64(counters+2*8, 1)
			}
			if bp.IsSync() {
				c.AtomicAdd64(counters+3*8, 1)
			}
			if bp.IsNumeric() {
				c.AtomicAdd64(counters+4*8, 1)
			}
			if bp.IsTexture() {
				c.AtomicAdd64(counters+5*8, 1)
			}
			c.AtomicAdd64(counters+6*8, 1)
		}),
	})
	rt.Attach(dev)

	const n = 256
	stats := runVecAdd(t, dev, prog, n)

	read := func(i int) uint64 {
		v, err := dev.Global.Read64(counters + uint64(i)*8)
		if err != nil {
			t.Fatalf("read counter %d: %v", i, err)
		}
		return v
	}
	total := read(6)
	memc := read(0)
	numeric := read(4)
	if total == 0 || memc == 0 || numeric == 0 {
		t.Fatalf("counters not incremented: total=%d mem=%d numeric=%d", total, memc, numeric)
	}
	// Every thread executes 3 memory ops (2 loads + 1 store).
	if want := uint64(3 * n); memc != want {
		t.Errorf("mem count = %d, want %d", memc, want)
	}
	if read(5) != 0 {
		t.Errorf("texture count = %d, want 0", read(5))
	}
	if stats.HandlerCalls == 0 || stats.InjectedWarpInstrs == 0 {
		t.Errorf("expected handler calls and injected instructions: %+v", stats)
	}
	t.Logf("total=%d mem=%d wide=%d ctrl=%d sync=%d numeric=%d handlerCalls=%d",
		total, memc, read(1), read(2), read(3), numeric, stats.HandlerCalls)
}

// TestOriginalInstructionsPreserved verifies SASSI's key invariant: the
// original instruction sequence survives injection verbatim and in order.
func TestOriginalInstructionsPreserved(t *testing.T) {
	prog := buildVecAdd(t)
	k, _ := prog.Kernel("vecadd")
	var orig []string
	for i := range k.Instrs {
		orig = append(orig, k.Instrs[i].Op.String())
	}
	if err := sassi.Instrument(prog, sassi.Options{
		Where: sassi.BeforeAll, What: sassi.PassMemoryInfo,
		BeforeHandler: "h",
	}); err != nil {
		t.Fatalf("instrument: %v", err)
	}
	var kept []string
	for i := range k.Instrs {
		if !k.Instrs[i].Injected {
			kept = append(kept, k.Instrs[i].Op.String())
		}
	}
	if len(kept) != len(orig) {
		t.Fatalf("original count changed: %d -> %d", len(orig), len(kept))
	}
	for i := range orig {
		if kept[i] != orig[i] {
			t.Fatalf("original instruction %d changed: %s -> %s", i, orig[i], kept[i])
		}
	}
}

// TestUninstrumentedStillRuns checks instrumentation does not break an
// uninstrumented sibling device.
func TestUninstrumentedStillRuns(t *testing.T) {
	prog := buildVecAdd(t)
	dev := sim.NewDevice(sim.MiniGPU())
	stats := runVecAdd(t, dev, prog, 128)
	if stats.InjectedWarpInstrs != 0 {
		t.Errorf("uninstrumented run reports injected instructions: %d", stats.InjectedWarpInstrs)
	}
}
