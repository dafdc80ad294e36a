package cuda_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	isassi "sassi/internal/sassi"
	"sassi/internal/sim"
)

func jitBuild() (*ptx.Module, error) {
	b := ptx.NewKernel("store_tid")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	b.StGlobalU32(b.Index(out, i, 2), 0, i)
	f, err := b.Done()
	if err != nil {
		return nil, err
	}
	m := ptx.NewModule()
	m.Add(f)
	return m, nil
}

// TestJITCachesCompiles: repeated launches reuse one compile; changing the
// instrumentation recompiles (the driver-embedded SASSI flow of Figure 1).
func TestJITCachesCompiles(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	j := cuda.NewJITModule(jitBuild, ptxas.Options{})
	out := ctx.Malloc(4*32, "out")
	params := sim.LaunchParams{Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(out)}}

	for i := 0; i < 3; i++ {
		if _, err := ctx.LaunchJIT(j, "store_tid", params); err != nil {
			t.Fatal(err)
		}
	}
	if j.Compiles() != 1 {
		t.Errorf("compiles = %d, want 1 (cached)", j.Compiles())
	}

	// Turn instrumentation on mid-application.
	calls := 0
	j.SetInstrumentation(func(prog *sass.Program) error {
		if err := isassi.Instrument(prog, isassi.Options{
			Where: isassi.BeforeMem, BeforeHandler: "h",
		}); err != nil {
			return err
		}
		rt := isassi.NewRuntime(prog)
		rt.MustRegister(&isassi.Handler{Name: "h",
			Fn: func(w *device.Warp, args isassi.HandlerArgs) { calls++ }})
		rt.Attach(ctx.Device())
		return nil
	})
	stats, err := ctx.LaunchJIT(j, "store_tid", params)
	if err != nil {
		t.Fatal(err)
	}
	if j.Compiles() != 2 {
		t.Errorf("compiles = %d, want 2 after option change", j.Compiles())
	}
	if calls == 0 || stats.HandlerCalls == 0 {
		t.Error("JIT-applied instrumentation did not run")
	}
	// Results still correct.
	vals, _ := ctx.ReadU32(out, 32)
	for i, v := range vals {
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}

	// Removing instrumentation recompiles clean.
	j.SetInstrumentation(nil)
	stats, err = ctx.LaunchJIT(j, "store_tid", params)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HandlerCalls != 0 || stats.InjectedWarpInstrs != 0 {
		t.Error("instrumentation survived removal")
	}
}
