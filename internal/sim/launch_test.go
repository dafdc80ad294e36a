package sim_test

import (
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

// storeGlobalIdKernel writes a grid-unique id to out[gid] using 2D geometry.
func storeGlobalIdKernel(t *testing.T) *sass.Program {
	t.Helper()
	k := &sass.Kernel{Name: "gid", Labels: map[string]int{}, NumRegs: 48}
	off := k.AddParam("out", 8)
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(40)}, []sass.Operand{sass.CMem(0, int64(off))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(41)}, []sass.Operand{sass.CMem(0, int64(off+4))}),
		// gid = (ctaid.y * nctaid.x + ctaid.x) * (ntid.x*ntid.y)
		//     + tid.y*ntid.x + tid.x
		sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sass.SRCtaidY)}),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(1)}, []sass.Operand{sass.SReg(sass.SRNCtaidX)}),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRCtaidX)}),
		{Guard: sass.Always, Op: sass.OpIMAD, Dsts: []sass.Operand{sass.R(3)},
			Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.R(2)}},
		sass.New(sass.OpS2R, []sass.Operand{sass.R(4)}, []sass.Operand{sass.SReg(sass.SRNTidX)}),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(5)}, []sass.Operand{sass.SReg(sass.SRNTidY)}),
		alu(sass.OpIMUL, sass.Mods{}, 6, sass.R(4), sass.R(5)),
		{Guard: sass.Always, Op: sass.OpIMAD, Dsts: []sass.Operand{sass.R(7)},
			Srcs: []sass.Operand{sass.R(3), sass.R(6), sass.R(sass.RZ)}},
		sass.New(sass.OpS2R, []sass.Operand{sass.R(8)}, []sass.Operand{sass.SReg(sass.SRTidY)}),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(9)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		{Guard: sass.Always, Op: sass.OpIMAD, Dsts: []sass.Operand{sass.R(10)},
			Srcs: []sass.Operand{sass.R(8), sass.R(4), sass.R(9)}},
		alu(sass.OpIADD, sass.Mods{}, 11, sass.R(7), sass.R(10)),
		// out[gid] = gid
		alu(sass.OpSHL, sass.Mods{}, 12, sass.R(11), sass.Imm(2)),
		{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
			Dsts: []sass.Operand{sass.R(40)}, Srcs: []sass.Operand{sass.R(40), sass.R(12)}},
		{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
			Dsts: []sass.Operand{sass.R(41)}, Srcs: []sass.Operand{sass.R(41), sass.R(sass.RZ)}},
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(11)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	return prog
}

func TestLaunchGeometry2D(t *testing.T) {
	prog := storeGlobalIdKernel(t)
	dev := sim.NewDevice(sim.MiniGPU())
	grid := sim.D2(3, 2)
	block := sim.D2(8, 4) // 32 threads per CTA
	total := grid.Count() * block.Count()
	out := dev.Alloc(uint64(4 * total))
	stats, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: grid, Block: block, Args: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CTAs != 6 || stats.Threads != total {
		t.Errorf("geometry stats = %+v", stats)
	}
	for i := 0; i < total; i++ {
		v, _ := dev.Global.Read32(out + uint64(4*i))
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d (2D indexing broken)", i, v)
		}
	}
}

func TestLaunchPartialWarp(t *testing.T) {
	prog := storeGlobalIdKernel(t)
	dev := sim.NewDevice(sim.MiniGPU())
	out := dev.Alloc(4 * 50)
	stats, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(50), Args: []uint64{out}, // 1.5 warps
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Threads != 50 {
		t.Errorf("threads = %d", stats.Threads)
	}
	for i := 0; i < 50; i++ {
		v, _ := dev.Global.Read32(out + uint64(4*i))
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestLaunchDistributesAcrossSMs(t *testing.T) {
	prog := storeGlobalIdKernel(t)
	cfg := sim.MiniGPU() // 2 SMs
	dev := sim.NewDevice(cfg)
	out := dev.Alloc(4 * 32 * 8)
	stats, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: sim.D1(8), Block: sim.D1(32), Args: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, c := range stats.SMCycles {
		if c > 0 {
			busy++
		}
	}
	if busy != cfg.NumSMs {
		t.Errorf("busy SMs = %d, want %d", busy, cfg.NumSMs)
	}
	if stats.Cycles == 0 {
		t.Error("no kernel cycles")
	}
	// Kernel time is the max, not the sum.
	var sum uint64
	for _, c := range stats.SMCycles {
		if c > stats.Cycles {
			t.Error("SM cycles exceed kernel cycles")
		}
		sum += c
	}
	if stats.Cycles >= sum && busy > 1 {
		t.Error("kernel cycles not max-over-SMs")
	}
}

func TestLaunchSharedMemoryLimit(t *testing.T) {
	k := &sass.Kernel{Name: "s", Labels: map[string]int{},
		SharedBytes: 1 << 20, // over the SM limit
		Instrs:      []sass.Instruction{sass.New(sass.OpEXIT, nil, nil)}}
	k.AddParam("out", 8)
	prog := sass.NewProgram()
	prog.AddKernel(k)
	dev := sim.NewDevice(sim.MiniGPU())
	if _, err := dev.Launch(prog, "s", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{0},
	}); err == nil {
		t.Error("oversized shared memory accepted")
	}
}

func TestLaunchStatsInjectedSeparation(t *testing.T) {
	prog := storeGlobalIdKernel(t)
	dev := sim.NewDevice(sim.MiniGPU())
	out := dev.Alloc(4 * 32)
	stats, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InjectedWarpInstrs != 0 || stats.HandlerCalls != 0 {
		t.Error("uninstrumented run reports instrumentation activity")
	}
	if stats.GlobalTransactions == 0 {
		t.Error("no global transactions counted")
	}
	if stats.ThreadInstrs < stats.WarpInstrs {
		t.Error("thread instrs below warp instrs on a full warp")
	}
}

func TestDim3Count(t *testing.T) {
	if (sim.Dim3{}).Count() != 1 {
		t.Error("zero dim count")
	}
	if sim.D2(3, 4).Count() != 12 {
		t.Error("2D count")
	}
	if (sim.Dim3{X: 2, Y: 3, Z: 4}).Count() != 24 {
		t.Error("3D count")
	}
}
