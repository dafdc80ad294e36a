package sim

// Allocation guard for the observability layer: with Metrics and Trace nil
// (the default), the warp-issue hot path must not allocate at all — issue
// accounting lives in plain smShard fields and the registry is only
// consulted once per launch in publishMetrics. TestWarpIssueZeroAlloc is
// the guard that fails the suite if an allocation sneaks into stepPre().

import (
	"runtime"
	"testing"
	"unsafe"

	"sassi/internal/mem"
	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/sass"
)

// benchWarp is warpStepper around a two-instruction uniform loop
// (IADD R0,R0,R0; BRA loop).
func benchWarp(tb testing.TB, reg *obs.Registry, tr *obs.Tracer, samp *pcsamp.Sampler) func() {
	return warpStepper(tb, []sass.Instruction{
		sass.New(sass.OpIADD, []sass.Operand{sass.R(0)}, []sass.Operand{sass.R(0), sass.R(0)}),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("loop")}),
	}, reg, tr, samp)
}

// warpStepper builds a minimal engine around a loop (label "loop" is its
// first instruction) and returns a stepper that executes one warp
// instruction of it per call on the execution core, with the watchdog held
// off. Threads get 256 bytes of stack, and the device 4 KiB of global
// memory at mem.GlobalBase.
func warpStepper(tb testing.TB, loop []sass.Instruction, reg *obs.Registry, tr *obs.Tracer, samp *pcsamp.Sampler) func() {
	tb.Helper()
	k := &sass.Kernel{Name: "spin", NumRegs: 16, Labels: map[string]int{"loop": 0}, Instrs: loop}
	if err := k.ResolveLabels(); err != nil {
		tb.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)

	cfg := MiniGPU()
	cfg.DefaultStackBytes = 256
	dev := NewDevice(cfg)
	dev.Metrics = reg
	dev.Trace = tr
	dev.Alloc(4096)
	e, cta := testEngine(tb, dev, prog, LaunchParams{Grid: D1(1), Block: D1(32)})
	if samp != nil {
		e.attachSampler(samp, k)
	}
	w := cta.Warps[0]
	return func() {
		if err := e.stepPre(w); err != nil {
			tb.Fatal(err)
		}
		w.DynWarpInstrs = 0 // hold the watchdog off
	}
}

// TestWarpIssueZeroAlloc pins the zero-cost-when-off contract: stepping a
// warp with observability disabled performs zero heap allocations per
// instruction. It also checks the obs-enabled path, which is equally
// allocation-free per instruction because metrics publish per launch and
// spans are emitted only at kernel/handler boundaries.
func TestWarpIssueZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
		tr   *obs.Tracer
	}{
		{"disabled", nil, nil},
		{"enabled", obs.NewRegistry(), obs.NewTracer()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := benchWarp(t, tc.reg, tc.tr, nil)
			step() // warm up (first divergence-free BRA, etc.)
			if allocs := testing.AllocsPerRun(1000, func() { step() }); allocs != 0 {
				t.Errorf("warp issue with obs %s allocates %.1f times per instruction, want 0",
					tc.name, allocs)
			}
		})
	}
}

// TestAtomicIssueZeroAlloc extends the contract to global atomics: a loop
// whose every iteration issues an ATOM and a RED on 32 lanes' words
// performs no heap allocation, coalescer result included.
func TestAtomicIssueZeroAlloc(t *testing.T) {
	hi := sass.Imm(int64(mem.GlobalBase >> 32))
	loop := []sass.Instruction{
		sass.New(sass.OpS2R, []sass.Operand{sass.R(1)}, []sass.Operand{sass.SReg(sass.SRLaneID)}),
		sass.New(sass.OpSHL, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(1), sass.Imm(3)}),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(3)}, []sass.Operand{hi}),
		{Guard: sass.Always, Op: sass.OpATOM, Mods: sass.Mods{Atom: sass.AtomADD, E: true, Width: sass.W64},
			Dsts: []sass.Operand{sass.R(4)}, Srcs: []sass.Operand{sass.Mem(2, 0), sass.R(1)}},
		{Guard: sass.Always, Op: sass.OpRED, Mods: sass.Mods{Atom: sass.AtomMAX, E: true},
			Srcs: []sass.Operand{sass.Mem(2, 0), sass.R(1)}},
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("loop")}),
	}
	step := warpStepper(t, loop, nil, nil, nil)
	iteration := func() {
		for range loop {
			step()
		}
	}
	iteration()
	if allocs := testing.AllocsPerRun(500, iteration); allocs != 0 {
		t.Errorf("a loop iteration with an ATOM and a RED allocates %.1f times, want 0", allocs)
	}
}

// TestGenericIssueZeroAlloc extends the contract to global loads: a loop
// whose every iteration issues a generic LD whose even lanes address global
// memory and odd lanes their stacks — the lane-by-lane path, which once
// allocated a fresh line list per access — and an LDG at one address for
// every lane performs no heap allocation.
func TestGenericIssueZeroAlloc(t *testing.T) {
	r, imm := sass.R, sass.Imm
	loop := []sass.Instruction{
		sass.New(sass.OpS2R, []sass.Operand{r(1)}, []sass.Operand{sass.SReg(sass.SRLaneID)}),
		sass.New(sass.OpSHL, []sass.Operand{r(2)}, []sass.Operand{r(1), imm(2)}),
		sass.New(sass.OpMOV32, []sass.Operand{r(3)}, []sass.Operand{imm(int64(mem.GlobalBase >> 32))}),
		{Guard: sass.Always, Op: sass.OpLOP, Mods: sass.Mods{Logic: sass.LogicAND},
			Dsts: []sass.Operand{r(8)}, Srcs: []sass.Operand{r(1), imm(1)}},
		{Guard: sass.Always, Op: sass.OpISETP, Mods: sass.Mods{Cmp: sass.CmpNE, Logic: sass.LogicAND},
			Dsts: []sass.Operand{sass.P(0)}, Srcs: []sass.Operand{r(8), r(sass.RZ), sass.P(sass.PT)}},
		{Guard: sass.PredGuard{Reg: 0}, Op: sass.OpMOV32, Dsts: []sass.Operand{r(3)}, Srcs: []sass.Operand{imm(0)}},
		{Guard: sass.PredGuard{Reg: 0}, Op: sass.OpIADD32, Dsts: []sass.Operand{r(2)},
			Srcs: []sass.Operand{r(2), imm(int64(mem.LocalBase))}},
		{Guard: sass.Always, Op: sass.OpLD, Mods: sass.Mods{E: true},
			Dsts: []sass.Operand{r(4)}, Srcs: []sass.Operand{sass.Mem(2, 0)}},
		sass.New(sass.OpMOV32, []sass.Operand{r(6)}, []sass.Operand{imm(0)}),
		sass.New(sass.OpMOV32, []sass.Operand{r(7)}, []sass.Operand{imm(int64(mem.GlobalBase >> 32))}),
		{Guard: sass.Always, Op: sass.OpLDG, Mods: sass.Mods{E: true},
			Dsts: []sass.Operand{r(5)}, Srcs: []sass.Operand{sass.Mem(6, 8)}},
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("loop")}),
	}
	step := warpStepper(t, loop, nil, nil, nil)
	iteration := func() {
		for range loop {
			step()
		}
	}
	iteration()
	if allocs := testing.AllocsPerRun(500, iteration); allocs != 0 {
		t.Errorf("a loop iteration with a mixed-space LD and a uniform LDG allocates %.1f times, want 0", allocs)
	}
}

// launchBytesCeiling bounds what one steady-state launch of a 128-thread
// CTA allocates: the engine, its per-SM shards and statistics, and per CTA
// the CTA, Warp structs and shared memory — slabs are reused, stacks left
// untouched. Measured: 4.3 kB on MiniGPU.
const launchBytesCeiling = 5 << 10

// TestWarpFootprint pins what a warp and a launch cost: the Warp struct
// holds no per-register state (its register rows, scoreboard and stack
// live in the CTA slab, sized by the kernel) and fits in 256 bytes, and a
// steady-state launch of a 128-thread kernel allocates at most
// launchBytesCeiling.
func TestWarpFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Warp{}); n > 256 {
		t.Errorf("sim.Warp is %d bytes, want at most 256", n)
	}
	k := &sass.Kernel{Name: "gid", NumRegs: 16, Labels: map[string]int{}}
	out := k.AddParam("out", 8)
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(2)}, []sass.Operand{sass.CMem(0, int64(out))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(3)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpSHL, []sass.Operand{sass.R(4)}, []sass.Operand{sass.R(0), sass.Imm(2)}),
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(2), sass.R(4)}),
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(2, 0), sass.R(0)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	dev := NewDevice(MiniGPU())
	buf := dev.Alloc(4 * 128)
	launch := func() {
		if _, err := dev.Launch(prog, "gid", LaunchParams{Grid: D1(1), Block: D1(128), Args: []uint64{buf}}); err != nil {
			t.Fatal(err)
		}
	}
	launch() // predecode, first slab carve
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		launch()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > launchBytesCeiling {
		t.Errorf("a 128-thread launch allocates %d bytes, ceiling %d", per, launchBytesCeiling)
	} else {
		t.Logf("sim.Warp is %d bytes; a 128-thread launch allocates %d bytes (ceiling %d)",
			unsafe.Sizeof(Warp{}), per, launchBytesCeiling)
	}
}
