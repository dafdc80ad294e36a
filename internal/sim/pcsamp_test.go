package sim

// PC-sampler integration guards: the hot-path Record must stay
// allocation-free, and at period 1 the profile must account for every
// modeled cycle exactly (the property the accuracy experiment's ground
// truth rests on).

import (
	"testing"

	"sassi/internal/obs/pcsamp"
	"sassi/internal/sass"
)

// TestPCSampZeroAlloc pins the zero-allocation contract on the sampling
// hot path: with a small ring (so folds happen inside the measured window)
// and period 1 (so every issue records), stepping a warp allocates nothing
// once the aggregation map has seen each location.
func TestPCSampZeroAlloc(t *testing.T) {
	samp := pcsamp.NewWithRing(1, 64)
	step := benchWarp(t, nil, nil, samp)
	// Warm up past several ring folds so every (pc, reason, stack) key
	// exists in the aggregation map before measuring.
	for i := 0; i < 512; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { step() }); allocs != 0 {
		t.Errorf("sampled warp issue allocates %.1f times per instruction, want 0", allocs)
	}
}

// sampKernel builds the gid store kernel used by the launch tests.
func sampKernel(tb testing.TB) *sass.Program {
	tb.Helper()
	k := &sass.Kernel{Name: "gid", NumRegs: 16, Labels: map[string]int{}}
	out := k.AddParam("out", 8)
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(2)}, []sass.Operand{sass.CMem(0, int64(out))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(3)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(2, 0), sass.R(0)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k.ResolveLabels(); err != nil {
		tb.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	return prog
}

// TestPCSampPeriodOneExact checks the exactness invariant: at period 1 the
// sample weights telescope, so the profile's total equals the launch's
// modeled cycles — every cycle attributed to exactly one PC.
func TestPCSampPeriodOneExact(t *testing.T) {
	prog := sampKernel(t)
	dev := NewDevice(MiniGPU())
	samp := pcsamp.New(1)
	dev.PCSamp = samp
	buf := dev.Alloc(4 * 64)
	stats, err := dev.Launch(prog, "gid", LaunchParams{
		Grid: D1(2), Block: D1(32), Args: []uint64{buf},
	})
	if err != nil {
		t.Fatal(err)
	}
	var cycles uint64
	for _, c := range stats.SMCycles {
		cycles += c
	}
	prof := samp.Profile()
	if got := prof.TotalSamples() * prof.Period; got != cycles {
		t.Errorf("period-1 profile accounts %d cycles, launch modeled %d", got, cycles)
	}
	if prof.Launches != 1 {
		t.Errorf("profile launches = %d, want 1", prof.Launches)
	}
	// The STG's memory latency must be attributed to the memory reason.
	var memory uint64
	for l, c := range prof.Locs {
		if l.Reason == pcsamp.ReasonMemory {
			memory += c.Samples
		}
	}
	if memory == 0 {
		t.Error("no cycles attributed to memory stalls")
	}
	// Every sampled PC must be a real instruction of the kernel.
	for pc := range prof.PCCycles() {
		if pc.Kernel != "gid" {
			t.Errorf("sampled unknown kernel %q", pc.Kernel)
		}
		if pc.PC < 0 || int(pc.PC) >= len(prog.Kernels[0].Instrs) {
			t.Errorf("sampled out-of-range pc %d", pc.PC)
		}
	}
}

// TestPCSampAccumulatesAcrossLaunches checks that repeated launches fold
// into one growing profile and that the free-list reuse between launches
// does not drop or double-count samples.
func TestPCSampAccumulatesAcrossLaunches(t *testing.T) {
	prog := sampKernel(t)
	dev := NewDevice(MiniGPU())
	samp := pcsamp.New(1)
	dev.PCSamp = samp
	buf := dev.Alloc(4 * 64)
	var cycles uint64
	const launches = 3
	for i := 0; i < launches; i++ {
		stats, err := dev.Launch(prog, "gid", LaunchParams{
			Grid: D1(2), Block: D1(32), Args: []uint64{buf},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range stats.SMCycles {
			cycles += c
		}
	}
	prof := samp.Profile()
	if got := prof.TotalSamples(); got != cycles {
		t.Errorf("profile accounts %d cycles over %d launches, launches modeled %d",
			got, launches, cycles)
	}
	if prof.Launches != launches {
		t.Errorf("profile launches = %d, want %d", prof.Launches, launches)
	}
}
