package ptxas_test

import (
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// stallKernel builds a kernel with deliberately bad source order: each
// loaded value is consumed immediately, though independent loads could
// overlap the latency.
func stallKernel() *ptx.Builder {
	b := ptx.NewKernel("stall")
	out := b.ParamU64("out")
	a0 := b.LdGlobalU32(b.Index(out, b.TidX(), 2), 0)
	s0 := b.MulI(a0, 3) // use right behind the load
	a1 := b.LdGlobalU32(b.Index(out, b.AddI(b.TidX(), 32), 2), 0)
	s1 := b.MulI(a1, 5)
	a2 := b.LdGlobalU32(b.Index(out, b.AddI(b.TidX(), 64), 2), 0)
	s2 := b.MulI(a2, 7)
	b.StGlobalU32(b.Index(out, b.TidX(), 2), 1024, b.Add(b.Add(s0, s1), s2))
	return b
}

// runStats launches the kernel and returns (stats, 32 output words after
// the 1 KiB store window base).
func runStats(t *testing.T, k *sass.Kernel) (*sim.KernelStats, [32]uint32) {
	t.Helper()
	prog := sass.NewProgram()
	prog.AddKernel(k)
	dev := sim.NewDevice(sim.MiniGPU())
	out := dev.Alloc(8192)
	stats, err := dev.Launch(prog, k.Name, sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	var words [32]uint32
	for i := range words {
		words[i], _ = dev.Global.Read32(out + 1024 + uint64(4*i))
	}
	return stats, words
}

// The scheduler must emit a verified permutation (the schedule check runs
// inside Compile under go test), preserve results bit-exactly, and reduce
// the scoreboard stalls the simulator charges for the back-to-back
// load-use chains.
func TestScheduleReducesStallsBitEqual(t *testing.T) {
	base := compileOne(t, stallKernel(), ptxas.Options{})
	sched := compileOne(t, stallKernel(), ptxas.Options{Schedule: true})

	if sched.SchedOrig == nil {
		t.Fatal("scheduled kernel carries no SchedOrig provenance")
	}
	if len(sched.SchedOrig) != len(sched.Instrs) {
		t.Fatalf("SchedOrig len %d, instrs %d", len(sched.SchedOrig), len(sched.Instrs))
	}
	if base.SchedOrig != nil {
		t.Fatal("unscheduled kernel carries SchedOrig")
	}

	bStats, bWords := runStats(t, base)
	sStats, sWords := runStats(t, sched)
	if bWords != sWords {
		t.Fatalf("scheduled output diverges: %v vs %v", bWords, sWords)
	}
	if sStats.ScoreboardStalls >= bStats.ScoreboardStalls {
		t.Errorf("scheduling did not reduce stalls: %d -> %d",
			bStats.ScoreboardStalls, sStats.ScoreboardStalls)
	}
	if sStats.Cycles >= bStats.Cycles {
		t.Errorf("scheduling did not reduce cycles: %d -> %d",
			bStats.Cycles, sStats.Cycles)
	}
	// Instruction mix untouched: scheduling permutes, never rewrites.
	if bStats.WarpInstrs != sStats.WarpInstrs || bStats.ThreadInstrs != sStats.ThreadInstrs {
		t.Errorf("instruction counts changed: warp %d->%d thread %d->%d",
			bStats.WarpInstrs, sStats.WarpInstrs, bStats.ThreadInstrs, sStats.ThreadInstrs)
	}
}

// Every autotuning seed yields a legal (compile-time verified) schedule
// with bit-identical results.
func TestScheduleSeedSweepBitEqual(t *testing.T) {
	_, want := runStats(t, compileOne(t, stallKernel(), ptxas.Options{}))
	for seed := uint64(0); seed < 8; seed++ {
		k := compileOne(t, stallKernel(), ptxas.Options{Schedule: true, SchedSeed: seed})
		_, got := runStats(t, k)
		if got != want {
			t.Fatalf("seed %d output diverges: %v vs %v", seed, got, want)
		}
	}
}

// Scheduling a kernel with control flow stays block-local; branches and
// reconvergence still verify and execute.
func TestScheduleControlFlow(t *testing.T) {
	build := func() *ptx.Builder {
		b := ptx.NewKernel("cf")
		out := b.ParamU64("out")
		v := b.Var(b.ImmU32(0))
		b.If(b.SetpI(sass.CmpLT, b.TidX(), 16), func() {
			x := b.LdGlobalU32(b.Index(out, b.TidX(), 2), 0)
			b.Assign(v, b.MulI(x, 3))
		})
		b.ForRange(b.ImmU32(0), b.ImmU32(4), func(i ptx.Value) {
			b.Assign(v, b.Add(v, i))
		})
		b.StGlobalU32(b.Index(out, b.TidX(), 2), 1024, v)
		return b
	}
	_, want := runStats(t, compileOne(t, build(), ptxas.Options{}))
	k := compileOne(t, build(), ptxas.Options{Schedule: true})
	_, got := runStats(t, k)
	if got != want {
		t.Fatalf("scheduled control-flow kernel diverges: %v vs %v", got, want)
	}
}
