package sim

// Allocation guard for the observability layer: with Metrics and Trace nil
// (the default), the warp-issue hot path must not allocate at all — issue
// accounting lives in plain smShard fields and the registry is only
// consulted once per launch in publishMetrics. BenchmarkObsOverhead is the
// CI smoke benchmark; TestWarpIssueZeroAlloc is the hard guard that fails
// the suite if an allocation sneaks into stepPre().

import (
	"testing"

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
// off. Threads get 256 bytes of stack.
func warpStepper(tb testing.TB, loop []sass.Instruction, reg *obs.Registry, tr *obs.Tracer, samp *pcsamp.Sampler) func() {
	tb.Helper()
	k := &sass.Kernel{Name: "spin", NumRegs: 16, Labels: map[string]int{"loop": 0}, Instrs: loop}
	if err := k.ResolveLabels(); err != nil {
		tb.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)

	dev := NewDevice(MiniGPU())
	dev.Metrics = reg
	dev.Trace = tr
	e := &engine{dev: dev, base: dev.code(prog, k, &LaunchParams{StackBytes: 256})}
	e.stats = &KernelStats{Kernel: k.Name, SMCycles: make([]uint64, dev.Cfg.NumSMs)}
	e.sms = make([]smShard, dev.Cfg.NumSMs)
	for i := range e.sms {
		e.sms[i].hier = mem.Hierarchy{
			L1: dev.L1s[i], L2: dev.L2s[i], DRAM: dev.DRAMs[i],
			L1Latency: dev.Cfg.L1Latency, L2Latency: dev.Cfg.L2Latency,
		}
	}
	e.ntid = [3]uint32{32, 1, 1}
	e.nctaid = [3]uint32{1, 1, 1}
	if samp != nil {
		e.attachSampler(samp, k, 32)
	}
	cta := e.buildCTA(0, D1(1), D1(32), 0, 0)
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

// BenchmarkObsOverhead measures the per-warp-instruction cost of the
// observability layer on the issue hot path. CI runs it as a smoke step;
// BENCH_obs.json records a reference run. Expect ~0 delta between the
// variants and 0 allocs/op on both.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("issue/disabled", func(b *testing.B) {
		step := benchWarp(b, nil, nil, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	b.Run("issue/enabled", func(b *testing.B) {
		step := benchWarp(b, obs.NewRegistry(), obs.NewTracer(), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	// PC sampling at the default period: the acceptance bound is <=10%
	// over issue/disabled. (At the default cadence 1-in-100 issues record
	// a 64-byte ring write, so the expected delta is ~1%.)
	b.Run("issue/sampling", func(b *testing.B) {
		step := benchWarp(b, nil, nil, pcsamp.New(pcsamp.DefaultPeriod))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	// Worst case: every issue cycle sampled.
	b.Run("issue/sampling-period1", func(b *testing.B) {
		step := benchWarp(b, nil, nil, pcsamp.New(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	// End-to-end: a full small launch with and without a live registry,
	// capturing the per-launch publishMetrics cost in context.
	launch := func(b *testing.B, reg *obs.Registry, samp *pcsamp.Sampler) {
		k := &sass.Kernel{Name: "gid", NumRegs: 16, Labels: map[string]int{}}
		out := k.AddParam("out", 8)
		k.Instrs = []sass.Instruction{
			sass.New(sass.OpMOV, []sass.Operand{sass.R(2)}, []sass.Operand{sass.CMem(0, int64(out))}),
			sass.New(sass.OpMOV, []sass.Operand{sass.R(3)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
			sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
			{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
				Srcs: []sass.Operand{sass.Mem(2, 0), sass.R(0)}},
			sass.New(sass.OpEXIT, nil, nil),
		}
		if err := k.ResolveLabels(); err != nil {
			b.Fatal(err)
		}
		prog := sass.NewProgram()
		prog.AddKernel(k)
		dev := NewDevice(MiniGPU())
		dev.Metrics = reg
		dev.PCSamp = samp
		buf := dev.Alloc(4*64, "out")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dev.Launch(prog, "gid", LaunchParams{
				Grid: D1(2), Block: D1(32), Args: []uint64{buf},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("launch/disabled", func(b *testing.B) { launch(b, nil, nil) })
	b.Run("launch/enabled", func(b *testing.B) { launch(b, obs.NewRegistry(), nil) })
	b.Run("launch/sampled", func(b *testing.B) { launch(b, nil, pcsamp.New(pcsamp.DefaultPeriod)) })
}
