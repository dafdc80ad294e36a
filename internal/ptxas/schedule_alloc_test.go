package ptxas

import (
	"runtime"
	"testing"
	"unsafe"

	"sassi/internal/analysis"
	"sassi/internal/ptx"
	"sassi/internal/sass"
)

// manyBlocks builds a kernel of many small basic blocks: a chain of
// guarded loads and multiplies, each arm its own block.
func manyBlocks(t *testing.T, arms int) *sass.Kernel {
	t.Helper()
	b := ptx.NewKernel("arms")
	out := b.ParamU64("out")
	v := b.Var(b.ImmU32(0))
	for i := 0; i < arms; i++ {
		b.If(b.SetpI(sass.CmpLT, b.TidX(), int64(i)), func() {
			x := b.LdGlobalU32(b.Index(out, b.TidX(), 2), int64(4*i))
			b.Assign(v, b.Add(v, b.MulI(x, int64(i+3))))
		})
	}
	b.StGlobalU32(b.Index(out, b.TidX(), 2), 1024, v)
	k, err := compileFunc(b.MustDone())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// bytesPerRun is the mean bytes fn allocates on a fresh clone of k.
func bytesPerRun(k *sass.Kernel, fn func(*sass.Kernel)) uint64 {
	const runs = 5
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		c := k.Clone()
		runtime.ReadMemStats(&before)
		fn(c)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	return total / runs
}

// TestScheduleKernelAllocationCeiling: past the CFG and dependence graph
// it schedules against, scheduleKernel allocates the reordered stream,
// the order, and one set of scratch arrays sized to the kernel's largest
// block — a regspace-wide scoreboard once per kernel, not once per block,
// which on this kernel's 121 blocks was 256 KB. The last 8 KB cover the
// scheduler's own header and the allocator's size-class rounding (the
// 39 168 B stream takes 40 960).
func TestScheduleKernelAllocationCeiling(t *testing.T) {
	k := manyBlocks(t, 40)
	var g *analysis.Graph
	deps := bytesPerRun(k, func(c *sass.Kernel) {
		cfg, err := sass.BuildCFG(c)
		if err != nil {
			t.Fatal(err)
		}
		g = analysis.BuildDeps(analysis.NewKernelFacts(cfg))
	})
	maxN, maxE := 0, 0
	for _, bd := range g.Blocks {
		maxN, maxE = max(maxN, bd.N()), max(maxE, len(bd.Edges))
	}
	for _, seed := range []uint64{0, 7} {
		got := bytesPerRun(k, func(c *sass.Kernel) { scheduleKernel(c, seed) })
		n := uint64(len(k.Instrs))
		ceiling := deps + n*uint64(unsafe.Sizeof(sass.Instruction{})+8) +
			64*uint64(maxN) + 8*uint64(maxE) + 8*uint64(analysis.CCBit()+1) + 8192
		t.Logf("seed %d: %d instrs, %d blocks (largest %d instrs, %d edges): %d B/call, graph %d B; ceiling %d B",
			seed, n, len(g.Blocks), maxN, maxE, got, deps, ceiling)
		if got > ceiling {
			t.Errorf("seed %d: scheduleKernel allocates %d B, ceiling graph + instrs·(sizeof(Instruction)+8) + 64·largest block + 8·its edges + 8·regspace + 8 KB = %d B",
				seed, got, ceiling)
		}
	}
}
