package cupti_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/cupti"
	"sassi/internal/device"
	isassi "sassi/internal/sassi"
	"sassi/internal/sim"
)

// TestKernelExitOncePerLaunchConcurrentSMs pins the subscriber contract
// under the parallel engine: with CTAs spread across 8 concurrently
// simulated SMs, KernelExit fires exactly once per launch, after the
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
	cupti.Subscribe(ctx, func(site cupti.Site, d *cupti.CallbackData) {
		if site != cupti.KernelExit {
			return
		}
		exits[d.LaunchIdx]++
		if d.Stats == nil {
			t.Error("exit without stats")
			return
		}
		// Merged geometry and counters: every CTA and every warp must be
		// accounted for in the single exit callback.
		if d.Stats.CTAs != ctas {
			t.Errorf("launch %d: CTAs = %d, want %d", d.LaunchIdx, d.Stats.CTAs, ctas)
		}
		// One store site x (ctas*block/32) warps, one handler call each.
		wantCalls := uint64(ctas * block / 32)
		if d.Stats.HandlerCalls != wantCalls {
			t.Errorf("launch %d: handler calls = %d, want %d",
				d.LaunchIdx, d.Stats.HandlerCalls, wantCalls)
		}
		if d.Stats.WarpInstrs == 0 || d.Stats.InjectedWarpInstrs == 0 {
			t.Errorf("launch %d: unmerged stats %+v", d.LaunchIdx, d.Stats)
		}
	})
	out := ctx.Malloc(4*ctas*block, "out")
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

// TestActivityRecordsDrainInLaunchOrder: with several launches on a
// concurrent-SM device, the activity stream delivers records whose Seq is
// strictly increasing across buffers, kernel records appear in launch
// order, and their device-cycle spans stack end to end.
func TestActivityRecordsDrainInLaunchOrder(t *testing.T) {
	ctx := cuda.NewContext(sim.KeplerK10())
	prog := instrumentedProg(t)
	rt := isassi.NewRuntime(prog)
	rt.MustRegister(&isassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args isassi.HandlerArgs) {}})
	rt.Attach(ctx.Device())

	var drained []cupti.ActivityRecord
	buffers := 0
	// Tiny buffer cap forces multiple BufferCompleted deliveries.
	act := cupti.EnableActivity(ctx, 3, func(records []cupti.ActivityRecord) {
		buffers++
		drained = append(drained, records...)
	})

	const launches = 5
	out := ctx.Malloc(4*64, "out")
	for l := 0; l < launches; l++ {
		if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
			Grid: sim.D1(2), Block: sim.D1(32), Args: []uint64{uint64(out)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	act.Flush()
	if act.Pending() != 0 {
		t.Errorf("%d records pending after flush", act.Pending())
	}
	if buffers < 2 {
		t.Errorf("expected multiple buffer deliveries, got %d", buffers)
	}

	var kernels, handlers []cupti.ActivityRecord
	for i, r := range drained {
		if uint64(i) != r.Seq {
			t.Fatalf("record %d has seq %d: drain out of order", i, r.Seq)
		}
		switch r.Kind {
		case cupti.ActivityKindKernel:
			kernels = append(kernels, r)
		case cupti.ActivityKindHandler:
			handlers = append(handlers, r)
		}
	}
	if len(kernels) != launches || len(handlers) != launches {
		t.Fatalf("kernel records = %d, handler records = %d, want %d each",
			len(kernels), len(handlers), launches)
	}
	var prevEnd uint64
	for i, r := range kernels {
		if r.LaunchIdx != i {
			t.Errorf("kernel record %d has launch idx %d", i, r.LaunchIdx)
		}
		if r.Start != prevEnd || r.End <= r.Start {
			t.Errorf("kernel record %d span [%d,%d) does not stack on %d",
				i, r.Start, r.End, prevEnd)
		}
		prevEnd = r.End
		if r.Name != "k" || r.Failed {
			t.Errorf("kernel record %d = %+v", i, r)
		}
	}
	for i, r := range handlers {
		if r.LaunchIdx != i || r.HandlerCalls == 0 {
			t.Errorf("handler record %d = %+v", i, r)
		}
	}
}

// TestActivityMemcpyRecords: host<->device copies show up as memcpy
// records with direction and size; disabling the kind stops recording.
func TestActivityMemcpyRecords(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	var drained []cupti.ActivityRecord
	act := cupti.EnableActivity(ctx, 0, func(records []cupti.ActivityRecord) {
		drained = append(drained, records...)
	})
	p := ctx.Malloc(64, "buf")
	if err := ctx.MemcpyHtoD(p, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyDtoH(make([]byte, 16), p); err != nil {
		t.Fatal(err)
	}
	act.Disable(cupti.ActivityKindMemcpy)
	if err := ctx.MemcpyHtoD(p, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	act.Flush()
	if len(drained) != 2 {
		t.Fatalf("records = %+v, want 2", drained)
	}
	if drained[0].Name != "HtoD" || drained[0].Bytes != 64 {
		t.Errorf("record 0 = %+v", drained[0])
	}
	if drained[1].Name != "DtoH" || drained[1].Bytes != 16 {
		t.Errorf("record 1 = %+v", drained[1])
	}
}
