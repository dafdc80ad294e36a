package handlers_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// tableHarness runs fn for every lane (32 per warp, ascending) of a trivial
// instrumented kernel with nWarps single-warp CTAs.
func tableHarness(t *testing.T, ctx *cuda.Context, nWarps int, fn func(c device.Lane)) {
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
	if err := sassi.Instrument(prog, sassi.Options{Where: sassi.BeforeMem, BeforeHandler: "h"}); err != nil {
		t.Fatal(err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(&sassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			for l := w.First(); l >= 0; l = w.Next(l) {
				fn(w.Lane(l))
			}
		}})
	rt.Attach(ctx.Device())
	buf := ctx.Malloc(uint64(4*32*nWarps), "out")
	if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(nWarps), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestInsTableClaimAndAccumulate(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	tbl := handlers.NewInsTable(ctx, "t", 64, 2, []uint64{0, 100})
	tableHarness(t, ctx, 4, func(c device.Lane) {
		// Key by lane parity: two distinct entries.
		key := int32(1000 + c.Index()%2)
		stats := tbl.Find(c, key)
		c.AtomicAdd64(stats, 1)
	})
	entries, err := tbl.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	for _, e := range entries {
		// 4 warps x 16 lanes of each parity.
		if e.Fields[0] != 64 {
			t.Errorf("key %d count = %d, want 64", e.Key, e.Fields[0])
		}
		if e.Fields[1] != 100 {
			t.Errorf("key %d second field = %d, want init 100", e.Key, e.Fields[1])
		}
	}
}

func TestInsTableCollisionProbing(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	// Tiny table forces probing with many distinct keys.
	tbl := handlers.NewInsTable(ctx, "t", 40, 1, nil)
	tableHarness(t, ctx, 1, func(c device.Lane) {
		// Every lane uses a distinct key: 32 entries in a 40-slot table.
		stats := tbl.Find(c, int32(c.Index()*7919))
		c.AtomicAdd64(stats, 1)
	})
	entries, err := tbl.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 32 {
		t.Fatalf("entries = %d, want 32", len(entries))
	}
	for _, e := range entries {
		if e.Fields[0] != 1 {
			t.Errorf("key %d count = %d", e.Key, e.Fields[0])
		}
	}
}

func TestInsTableReset(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	tbl := handlers.NewInsTable(ctx, "t", 16, 1, nil)
	tableHarness(t, ctx, 1, func(c device.Lane) {
		c.AtomicAdd64(tbl.Find(c, 5), 1)
	})
	if err := tbl.Reset(); err != nil {
		t.Fatal(err)
	}
	entries, err := tbl.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("entries after reset = %d", len(entries))
	}
}

// TestInsTableParallelClaim: warps on concurrently simulated SMs racing to
// claim the same slot must agree on one initialization.
func TestInsTableParallelClaim(t *testing.T) {
	ctx := cuda.NewContext(sim.KeplerK10()) // 8 SMs, concurrent by default
	tbl := handlers.NewInsTable(ctx, "t", 16, 1, []uint64{7})
	const nWarps = 64
	tableHarness(t, ctx, nWarps, func(c device.Lane) {
		c.AtomicAdd64(tbl.Find(c, 42), 1)
	})
	entries, err := tbl.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Fields[0] != 7+32*nWarps {
		t.Fatalf("entries = %+v, want one entry with init 7 + %d adds", entries, 32*nWarps)
	}
}
