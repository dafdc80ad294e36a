package sim_test

import (
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

// TestCTAWaves: more CTAs than can be resident at once run in waves and
// still all complete correctly.
func TestCTAWaves(t *testing.T) {
	prog := storeGlobalIdKernel(t)
	cfg := sim.MiniGPU()
	cfg.MaxCTAsPerSM = 1 // force waves: 8 CTAs over 2 SMs = 4 waves each
	dev := sim.NewDevice(cfg)
	const ctas = 8
	out := dev.Alloc(4 * 32 * ctas)
	stats, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: sim.D1(ctas), Block: sim.D1(32), Args: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CTAs != ctas {
		t.Errorf("CTAs = %d", stats.CTAs)
	}
	for i := 0; i < 32*ctas; i++ {
		v, _ := dev.Global.Read32(out + uint64(4*i))
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d (waved scheduling corrupted results)", i, v)
		}
	}
}

// TestResidencyLimitedByThreads: MaxThreadsPerSM bounds concurrent CTAs.
func TestResidencyLimitedByThreads(t *testing.T) {
	prog := storeGlobalIdKernel(t)
	cfg := sim.MiniGPU()
	cfg.MaxThreadsPerSM = 64 // two 32-thread CTAs at a time
	dev := sim.NewDevice(cfg)
	out := dev.Alloc(4 * 32 * 6)
	if _, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: sim.D1(6), Block: sim.D1(32), Args: []uint64{out},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32*6; i++ {
		v, _ := dev.Global.Read32(out + uint64(4*i))
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestAtomicsAcrossCTAs: a global atomic accumulates across all CTAs and
// SMs exactly once per thread.
func TestAtomicsAcrossCTAs(t *testing.T) {
	k := &sass.Kernel{Name: "acc", Labels: map[string]int{}, NumRegs: 48}
	off := k.AddParam("ctr", 8)
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(40)}, []sass.Operand{sass.CMem(0, int64(off))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(41)}, []sass.Operand{sass.CMem(0, int64(off+4))}),
		movi(0, 1),
		{Guard: sass.Always, Op: sass.OpATOM,
			Mods: sass.Mods{Atom: sass.AtomADD, E: true, Width: sass.W32},
			Dsts: []sass.Operand{sass.R(sass.RZ)},
			Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(0)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	dev := sim.NewDevice(sim.MiniGPU())
	ctr := dev.Alloc(4)
	const ctas, threads = 7, 96
	if _, err := dev.Launch(prog, "acc", sim.LaunchParams{
		Grid: sim.D1(ctas), Block: sim.D1(threads), Args: []uint64{ctr},
	}); err != nil {
		t.Fatal(err)
	}
	v, _ := dev.Global.Read32(ctr)
	if v != ctas*threads {
		t.Fatalf("counter = %d, want %d", v, ctas*threads)
	}
}

// TestCyclesScaleWithWork: doubling the grid roughly doubles total work
// and never decreases modeled kernel cycles.
func TestCyclesScaleWithWork(t *testing.T) {
	prog := storeGlobalIdKernel(t)
	run := func(ctas int) uint64 {
		dev := sim.NewDevice(sim.MiniGPU())
		out := dev.Alloc(uint64(4 * 32 * ctas))
		stats, err := dev.Launch(prog, "gid", sim.LaunchParams{
			Grid: sim.D1(ctas), Block: sim.D1(32), Args: []uint64{out},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Cycles
	}
	small := run(2)
	big := run(8)
	if big <= small {
		t.Errorf("cycles did not grow with work: %d -> %d", small, big)
	}
}

// TestPerKernelConstBankIsolation: two kernels with different parameter
// layouts launch back to back without interference.
func TestPerKernelConstBankIsolation(t *testing.T) {
	prog := storeGlobalIdKernel(t)
	// Add a second kernel with three params.
	k2 := &sass.Kernel{Name: "second", Labels: map[string]int{}, NumRegs: 48}
	a := k2.AddParam("a", 4)
	bOff := k2.AddParam("b", 4)
	out := k2.AddParam("out", 8)
	k2.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(0)}, []sass.Operand{sass.CMem(0, int64(a))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(1)}, []sass.Operand{sass.CMem(0, int64(bOff))}),
		alu(sass.OpIADD, sass.Mods{}, 2, sass.R(0), sass.R(1)),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(40)}, []sass.Operand{sass.CMem(0, int64(out))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(41)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(2)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k2.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog.AddKernel(k2)

	dev := sim.NewDevice(sim.MiniGPU())
	buf := dev.Alloc(4 * 64)
	if _, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{buf},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Launch(prog, "second", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(1), Args: []uint64{11, 31, buf + 128},
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := dev.Global.Read32(buf + 128); v != 42 {
		t.Fatalf("second kernel result = %d", v)
	}
	if v, _ := dev.Global.Read32(buf); v != 0 {
		t.Fatalf("first kernel output clobbered: %d", v)
	}
}
