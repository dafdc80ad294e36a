package uvm_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/uvm"
)

// scaleProg builds data[i] *= 2 for i < n.
func scaleProg(t *testing.T) *sass.Program {
	t.Helper()
	b := ptx.NewKernel("scale")
	data := b.ParamU64("data")
	n := b.ParamU32("n")
	i := b.GlobalTidX()
	b.If(b.Setp(sass.CmpLT, i, n), func() {
		v := b.LdGlobalU32(b.Index(data, i, 2), 0)
		b.StGlobalU32(b.Index(data, i, 2), 0, b.MulI(v, 2))
	})
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestMigrationLifecycle(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	mgr := uvm.NewManager(ctx)
	prog := scaleProg(t)
	if err := sassi.Instrument(prog, mgr.Options()); err != nil {
		t.Fatal(err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(mgr.Handler())
	rt.Attach(ctx.Device())

	const n = 2048 // two pages worth of u32s
	buf := mgr.AllocManaged(4*n, "data")
	host := make([]uint32, n)
	for i := range host {
		host[i] = uint32(i)
	}
	// CPU writes: pages stay CPU-resident.
	if err := mgr.HostWriteU32(buf, host); err != nil {
		t.Fatal(err)
	}
	cpu, gpu := mgr.Residency()
	if gpu != 0 || cpu < 2 {
		t.Fatalf("after host write: residency cpu=%d gpu=%d", cpu, gpu)
	}

	// GPU kernel touches every page: all migrate to the device.
	if _, err := ctx.LaunchKernel(prog, "scale", sim.LaunchParams{
		Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
		Args: []uint64{uint64(buf), n},
	}); err != nil {
		t.Fatal(err)
	}
	cpu, gpu = mgr.Residency()
	if cpu != 0 || gpu < 2 {
		t.Fatalf("after kernel: residency cpu=%d gpu=%d", cpu, gpu)
	}
	if mgr.H2D < 2 {
		t.Errorf("H2D migrations = %d, want >= 2", mgr.H2D)
	}
	if mgr.GPUTouches == 0 {
		t.Error("no GPU touches traced")
	}

	// CPU reads the results: pages come back (D2H) and values are right.
	got, err := mgr.HostReadU32(buf, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint32(2*i) {
			t.Fatalf("data[%d] = %d", i, v)
		}
	}
	if mgr.D2H < 2 {
		t.Errorf("D2H migrations = %d", mgr.D2H)
	}

	// Second kernel: pages ping-pong back.
	if _, err := ctx.LaunchKernel(prog, "scale", sim.LaunchParams{
		Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
		Args: []uint64{uint64(buf), n},
	}); err != nil {
		t.Fatal(err)
	}
	if mgr.PingPongs == 0 {
		t.Error("no ping-pong migrations detected after alternating access")
	}
	if len(mgr.SharedPages()) < 2 {
		t.Errorf("shared pages = %d, want >= 2", len(mgr.SharedPages()))
	}
	if mgr.Report() == "" {
		t.Error("empty report")
	}
}

func TestUnmanagedMemoryIgnored(t *testing.T) {
	ctx := cuda.NewContext(sim.MiniGPU())
	mgr := uvm.NewManager(ctx)
	prog := scaleProg(t)
	if err := sassi.Instrument(prog, mgr.Options()); err != nil {
		t.Fatal(err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(mgr.Handler())
	rt.Attach(ctx.Device())

	// Plain (unmanaged) allocation: no UVM events.
	buf := ctx.AllocU32("plain", make([]uint32, 256))
	if _, err := ctx.LaunchKernel(prog, "scale", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(128), Args: []uint64{uint64(buf), 128},
	}); err != nil {
		t.Fatal(err)
	}
	if mgr.GPUTouches != 0 || len(mgr.Events) != 0 {
		t.Errorf("unmanaged memory traced: touches=%d events=%d", mgr.GPUTouches, len(mgr.Events))
	}
}
