package cupti_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/cupti"
	"sassi/internal/device"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	isassi "sassi/internal/sassi"
	"sassi/internal/sim"
)

func instrumentedProg(t *testing.T) *sass.Program {
	t.Helper()
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	b.StGlobalU32(b.Index(out, i, 2), 0, i)
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := isassi.Instrument(prog, isassi.Options{Where: isassi.BeforeMem, BeforeHandler: "h"}); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCounterBankPerLaunchIsolation: counters zero at each launch; host
// accumulates across launches and tracks per-kernel totals.
func TestCounterBankPerLaunchIsolation(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	prog := instrumentedProg(t)
	bank := cupti.NewCounterBank(ctx, "counters", 2)
	rt := isassi.NewRuntime(prog)
	rt.MustRegister(&isassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args isassi.HandlerArgs) {
			for l := w.First(); l >= 0; l = w.Next(l) {
				w.Lane(l).AtomicAdd64(bank.Ptr(0), 1)
			}
		}})
	rt.Attach(ctx.Device())
	out := ctx.Malloc(4*64, "out")
	for l := 0; l < 3; l++ {
		if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
			Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(out)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One store site x 32 threads x 3 launches.
	if bank.Host[0] != 96 {
		t.Errorf("accumulated counter = %d, want 96", bank.Host[0])
	}
	if bank.Host[1] != 0 {
		t.Errorf("untouched counter = %d", bank.Host[1])
	}
	per := bank.PerKernel["k"]
	if per == nil || per[0] != 96 {
		t.Errorf("per-kernel = %v", per)
	}
	if bank.Len() != 2 || bank.Ptr(1) != bank.Base()+8 {
		t.Error("bank geometry accessors wrong")
	}
}

// TestSubscribeSitesFire: both launch and exit callbacks observe the
// kernel name and stats.
func TestSubscribeSitesFire(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	prog := instrumentedProg(t)
	rt := isassi.NewRuntime(prog)
	rt.MustRegister(&isassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args isassi.HandlerArgs) {}})
	rt.Attach(ctx.Device())

	var sawLaunch, sawExit bool
	cupti.Subscribe(ctx, func(site cupti.Site, d *cupti.CallbackData) {
		switch site {
		case cupti.KernelLaunch:
			sawLaunch = true
			if d.Kernel != "k" || d.Stats != nil {
				t.Errorf("launch data = %+v", d)
			}
		case cupti.KernelExit:
			sawExit = true
			if d.Stats == nil || d.Err != nil {
				t.Errorf("exit data = %+v", d)
			}
		}
	})
	out := ctx.Malloc(4*64, "out")
	if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(out)},
	}); err != nil {
		t.Fatal(err)
	}
	if !sawLaunch || !sawExit {
		t.Errorf("callbacks fired: launch=%v exit=%v", sawLaunch, sawExit)
	}
}
