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
// accumulates across launches.
func TestCounterBankPerLaunchIsolation(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	prog := instrumentedProg(t)
	bank := cupti.NewCounterBank(ctx, 2)
	rt := isassi.NewRuntime(prog)
	rt.MustRegister(&isassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args isassi.HandlerArgs) {
			for l := w.First(); l >= 0; l = w.Next(l) {
				w.Lane(l).AtomicAdd64(bank.Ptr(0), 1)
			}
		}})
	rt.Attach(ctx.Device())
	out := ctx.Malloc(4 * 64)
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
	if bank.Len() != 2 || bank.Ptr(1) != bank.Ptr(0)+8 {
		t.Error("bank geometry accessors wrong")
	}
}

// TestSubscribeSitesFire: both launch and exit callbacks observe the
// kernel name, and the exit callback the stats.
func TestSubscribeSitesFire(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	prog := instrumentedProg(t)
	rt := isassi.NewRuntime(prog)
	rt.MustRegister(&isassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args isassi.HandlerArgs) {}})
	rt.Attach(ctx.Device())

	var sawLaunch, sawExit bool
	ctx.Subscribe(cuda.LaunchCallbacks{
		PreLaunch: func(kernel string, _ int) {
			sawLaunch = true
			if kernel != "k" {
				t.Errorf("launch kernel = %q", kernel)
			}
		},
		PostLaunch: func(kernel string, _ int, stats *sim.KernelStats, err error) {
			sawExit = true
			if kernel != "k" || stats == nil || err != nil {
				t.Errorf("exit: kernel %q, stats %+v, err %v", kernel, stats, err)
			}
		},
	})
	out := ctx.Malloc(4 * 64)
	if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(out)},
	}); err != nil {
		t.Fatal(err)
	}
	if !sawLaunch || !sawExit {
		t.Errorf("callbacks fired: launch=%v exit=%v", sawLaunch, sawExit)
	}
}

// TestKernelExitOncePerLaunchConcurrentSMs pins the subscriber contract
// under the parallel engine: with CTAs spread across 8 concurrently
// simulated SMs, PostLaunch fires exactly once per launch, after the
// per-SM shards have been fully merged into one KernelStats.
func TestKernelExitOncePerLaunchConcurrentSMs(t *testing.T) {
	ctx := cuda.NewContext(sim.KeplerK10()) // 8 SMs, concurrent by default
	prog := instrumentedProg(t)
	rt := isassi.NewRuntime(prog)
	rt.MustRegister(&isassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args isassi.HandlerArgs) {}})
	rt.Attach(ctx.Device())

	const launches = 4
	const ctas, block = 32, 64
	exits := map[int]int{}
	ctx.Subscribe(cuda.LaunchCallbacks{PostLaunch: func(_ string, idx int, stats *sim.KernelStats, _ error) {
		exits[idx]++
		if stats == nil {
			t.Error("exit without stats")
			return
		}
		// Merged geometry and counters: every CTA and every warp must be
		// accounted for in the single exit callback.
		if stats.CTAs != ctas {
			t.Errorf("launch %d: CTAs = %d, want %d", idx, stats.CTAs, ctas)
		}
		// One store site x (ctas*block/32) warps, one handler call each.
		wantCalls := uint64(ctas * block / 32)
		if stats.HandlerCalls != wantCalls {
			t.Errorf("launch %d: handler calls = %d, want %d",
				idx, stats.HandlerCalls, wantCalls)
		}
		if stats.WarpInstrs == 0 || stats.InjectedWarpInstrs == 0 {
			t.Errorf("launch %d: unmerged stats %+v", idx, stats)
		}
	}})
	out := ctx.Malloc(4 * ctas * block)
	for l := 0; l < launches; l++ {
		if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
			Grid: sim.D1(ctas), Block: sim.D1(block), Args: []uint64{uint64(out)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(exits) != launches {
		t.Errorf("exit fired for %d launches, want %d", len(exits), launches)
	}
	for idx, n := range exits {
		if n != 1 {
			t.Errorf("launch %d: exit fired %d times, want exactly once", idx, n)
		}
	}
}
