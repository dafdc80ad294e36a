package sassi_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// buildTwoKernels compiles a module with two kernels.
func buildTwoKernels(t *testing.T) *sass.Program {
	t.Helper()
	m := ptx.NewModule()
	for _, name := range []string{"alpha", "beta"} {
		b := ptx.NewKernel(name)
		out := b.ParamU64("out")
		i := b.GlobalTidX()
		b.StGlobalU32(b.Index(out, i, 2), 0, i)
		m.Add(b.MustDone())
	}
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestMultiKernelSiteIDsUnique: instrumentation sites across kernels get
// distinct ids and distinct instruction addresses (FnAddr separates them).
func TestMultiKernelSiteIDsUnique(t *testing.T) {
	prog := buildTwoKernels(t)
	if err := sassi.Instrument(prog, sassi.Options{
		Where: sassi.BeforeAll, BeforeHandler: "h",
	}); err != nil {
		t.Fatal(err)
	}
	seenIDs := map[int32]bool{}
	seenAddrs := map[int32]bool{}
	ctx := cuda.NewContext(sim.MiniGPU())
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(&sassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			seenIDs[args.BP.ID()] = true
			seenAddrs[args.BP.InsAddr()] = true
		}})
	rt.Attach(ctx.Device())
	buf := ctx.Malloc(4 * 32)
	for _, k := range []string{"alpha", "beta"} {
		if _, err := ctx.LaunchKernel(prog, k, sim.LaunchParams{
			Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Both kernels have the same instruction count; if ids or addresses
	// collided across kernels, the sets would be half-sized.
	na, _ := prog.Kernel("alpha")
	totalOrig := 0
	for i := range na.Instrs {
		if !na.Instrs[i].Injected {
			totalOrig++
		}
	}
	if len(seenIDs) != 2*totalOrig {
		t.Errorf("distinct site ids = %d, want %d", len(seenIDs), 2*totalOrig)
	}
	if len(seenAddrs) != 2*totalOrig {
		t.Errorf("distinct site addrs = %d, want %d", len(seenAddrs), 2*totalOrig)
	}
}

// TestTwoHandlersBeforeAndAfter: a program can carry distinct before and
// after handlers simultaneously, dispatched to the right functions.
func TestTwoHandlersBeforeAndAfter(t *testing.T) {
	prog := buildTwoKernels(t)
	if err := sassi.Instrument(prog, sassi.Options{
		Where:         sassi.BeforeMem | sassi.AfterRegWrites,
		BeforeHandler: "before_h",
		AfterHandler:  "after_h",
	}); err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	rt := sassi.NewRuntime(prog)
	var befores, afters int
	rt.MustRegister(&sassi.Handler{Name: "before_h",
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			befores++
			if !args.BP.IsMem() {
				t.Error("before handler saw a non-memory site")
			}
		}})
	rt.MustRegister(&sassi.Handler{Name: "after_h",
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			afters++
		}})
	rt.Attach(ctx.Device())
	buf := ctx.Malloc(4 * 32)
	if _, err := ctx.LaunchKernel(prog, "alpha", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	}); err != nil {
		t.Fatal(err)
	}
	if befores == 0 || afters == 0 {
		t.Errorf("befores=%d afters=%d", befores, afters)
	}
	if afters <= befores {
		t.Errorf("after-write sites (%d) should outnumber memory sites (%d) in this kernel", afters, befores)
	}
}

// TestUnregisteredHandlerFaults: JCAL to a symbol nobody registered is a
// launch-time error (unlinked reference).
func TestUnregisteredHandlerFaults(t *testing.T) {
	prog := buildTwoKernels(t)
	if err := sassi.Instrument(prog, sassi.Options{
		Where: sassi.BeforeMem, BeforeHandler: "ghost",
	}); err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	rt := sassi.NewRuntime(prog)
	rt.Attach(ctx.Device()) // nothing registered
	buf := ctx.Malloc(4 * 32)
	if _, err := ctx.LaunchKernel(prog, "alpha", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	}); err == nil {
		t.Fatal("unregistered handler dispatched successfully")
	}
	// Registering a handler for a symbol with no JCAL site is an error too.
	if err := rt.Register(&sassi.Handler{Name: "never_injected",
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {}}); err == nil {
		t.Error("registered a handler with no sites")
	}
}

// TestStackedInstrumentation: instrumenting an already-instrumented program
// composes — both passes' handlers run (tool layering).
func TestStackedInstrumentation(t *testing.T) {
	prog := buildTwoKernels(t)
	if err := sassi.Instrument(prog, sassi.Options{
		Where: sassi.BeforeMem, BeforeHandler: "first",
	}); err != nil {
		t.Fatal(err)
	}
	// The second pass sees the injected code too; restrict it to original
	// memory instructions via Select to keep site counts predictable.
	if err := sassi.Instrument(prog, sassi.Options{
		Where: sassi.BeforeMem, BeforeHandler: "second",
		Select: func(k *sass.Kernel, idx int, in *sass.Instruction) bool {
			return !in.Injected
		},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	rt := sassi.NewRuntime(prog)
	var first, second int
	rt.MustRegister(&sassi.Handler{Name: "first",
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			first++
		}})
	rt.MustRegister(&sassi.Handler{Name: "second",
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			second++
		}})
	rt.Attach(ctx.Device())
	buf := ctx.Malloc(4 * 32)
	if _, err := ctx.LaunchKernel(prog, "alpha", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	}); err != nil {
		t.Fatal(err)
	}
	if first == 0 || second == 0 {
		t.Errorf("stacked handlers: first=%d second=%d", first, second)
	}
	if second > first {
		t.Errorf("second pass (%d) should not exceed first (%d): it also instruments the first pass's STLs unless filtered", second, first)
	}
}
