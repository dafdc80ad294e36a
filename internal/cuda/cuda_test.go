package cuda_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func vecProg(t *testing.T) *sass.Program {
	t.Helper()
	b := ptx.NewKernel("store_tid")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	b.StGlobalU32(b.Index(out, i, 2), 0, i)
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestMemcpyRoundtrips(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	f := []float32{1.5, -2.25, 3}
	df := ctx.AllocF32("f", f)
	back, err := ctx.ReadF32(df, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if back[i] != f[i] {
			t.Errorf("f[%d] = %v", i, back[i])
		}
	}
	u := []uint32{7, 8, 9}
	du := ctx.AllocU32("u", u)
	ub, err := ctx.ReadU32(du, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u {
		if ub[i] != u[i] {
			t.Errorf("u[%d] = %v", i, ub[i])
		}
	}
	raw := ctx.Malloc(16, "raw")
	if err := ctx.Memset32(raw, 0xDEAD, 4); err != nil {
		t.Fatal(err)
	}
	rb, _ := ctx.ReadU32(raw, 4)
	for _, v := range rb {
		if v != 0xDEAD {
			t.Errorf("memset value %#x", v)
		}
	}
	u64s, err := ctx.ReadU64(raw, 2)
	if err != nil || u64s[0] != 0x0000DEAD0000DEAD {
		t.Errorf("ReadU64 = %#x, %v", u64s, err)
	}
}

func TestLaunchCallbacksOrderAndStats(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	prog := vecProg(t)
	var events []string
	ctx.Subscribe(cuda.LaunchCallbacks{
		PreLaunch: func(kernel string, idx int) {
			events = append(events, "pre")
		},
		PostLaunch: func(kernel string, idx int, stats *sim.KernelStats, err error) {
			if stats == nil || err != nil {
				t.Errorf("post callback stats=%v err=%v", stats, err)
			}
			events = append(events, "post")
		},
	})
	out := ctx.Malloc(4*64, "out")
	for i := 0; i < 2; i++ {
		if _, err := ctx.LaunchKernel(prog, "store_tid", sim.LaunchParams{
			Grid: sim.D1(2), Block: sim.D1(32), Args: []uint64{uint64(out)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(events) != 4 || events[0] != "pre" || events[1] != "post" {
		t.Errorf("events = %v", events)
	}
	if ctx.Launches() != 2 {
		t.Errorf("launches = %d", ctx.Launches())
	}
	if ctx.TotalKernelCycles == 0 || ctx.TotalWarpInstrs == 0 {
		t.Error("aggregate stats empty")
	}
	agg := ctx.PerKernel["store_tid"]
	if agg == nil || agg.Launches != 2 || agg.Cycles == 0 {
		t.Errorf("per-kernel agg = %+v", agg)
	}
}

func TestLaunchBadArgsCount(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	prog := vecProg(t)
	if _, err := ctx.LaunchKernel(prog, "store_tid", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: nil,
	}); err == nil {
		t.Error("missing args accepted")
	}
	if _, err := ctx.LaunchKernel(prog, "ghost", sim.LaunchParams{}); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestTwinCallbackAndReset: a Twin subscriber's program reaches the launch
// the host code issues, two answers to one launch are an error, and Reset
// leaves a context that counts launches, calls subscribers and allocates
// like a new one.
func TestTwinCallbackAndReset(t *testing.T) {
	prog, twin := vecProg(t), vecProg(t)
	ctx := cuda.NewContext(sim.MiniGPU())
	var asked []int
	answer := func(_ string, idx int) *sim.Twin {
		asked = append(asked, idx)
		return &sim.Twin{Prog: twin, CTAs: func(cta int) bool { return cta == 1 }}
	}
	ctx.Subscribe(cuda.LaunchCallbacks{Twin: answer})
	var ran []*sass.Kernel
	ctx.Device().CTARetire = func(cta *sim.CTA) {
		if cta.Index == 1 {
			ran = append(ran, cta.Kernel)
		}
	}
	launch := func() error {
		out := ctx.Malloc(4*64, "out")
		_, err := ctx.LaunchKernel(prog, "store_tid", sim.LaunchParams{
			Grid: sim.D1(2), Block: sim.D1(32), Args: []uint64{uint64(out)},
		})
		return err
	}
	first := ctx.Malloc(4, "probe")
	if err := launch(); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 1 || asked[0] != 0 || len(ran) != 1 || ran[0] != twin.Kernels[0] {
		t.Fatalf("Twin asked for launches %v; CTA 1 ran %v, want the twin's kernel once", asked, ran)
	}
	ctx.Subscribe(cuda.LaunchCallbacks{Twin: answer})
	if err := launch(); err == nil {
		t.Error("two Twin answers to one launch were accepted")
	}

	if err := ctx.Reset(); err != nil {
		t.Fatal(err)
	}
	asked = nil
	if got := ctx.Malloc(4, "probe"); got != first {
		t.Errorf("first allocation after Reset at %#x, a new context's is at %#x", got, first)
	}
	if err := launch(); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 0 || ctx.Launches() != 1 || ctx.Device().CTARetire != nil {
		t.Errorf("after Reset: Twin subscribers asked %v, %d launches counted, CTARetire still attached: %v",
			asked, ctx.Launches(), ctx.Device().CTARetire != nil)
	}
}
