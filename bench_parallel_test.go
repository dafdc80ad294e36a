package sassi_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"sassi/internal/cuda"
	"sassi/internal/faults"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/ptxas"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// The parallel-execution benchmarks measure the three concurrency layers of
// the engine: concurrent SMs inside one launch, campaign worker pools
// across fault-injection runs, and the compile cache that lets the fan-out
// share one compile. Results are recorded in BENCH_parallel.json (see
// TestWriteBenchParallelJSON); both paths produce bit-equal results, so
// these measure host wall time only.

// parallelBenchLaunch runs one sgemm(medium) end to end on a fresh device.
func parallelBenchLaunch(tb testing.TB, sequential bool) {
	spec, ok := workloads.Get("parboil.sgemm")
	if !ok {
		tb.Fatal("sgemm not registered")
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.KeplerK10()
	cfg.SequentialSMs = sequential
	ctx := cuda.NewContext(cfg)
	res, err := spec.Run(ctx, prog, "medium")
	if err != nil {
		tb.Fatal(err)
	}
	if res.VerifyErr != nil {
		tb.Fatal(res.VerifyErr)
	}
}

// parallelBenchSched runs sgemm(medium) compiled with or without the
// post-RA list scheduler. Scheduling shrinks simulated cycles, and since
// the interpreter's wall time tracks issued cycles, the delta shows up as
// host throughput too — recorded so sched gains stay separable from
// engine noise when re-baselining.
func parallelBenchSched(tb testing.TB, schedule bool) {
	spec, ok := workloads.Get("parboil.sgemm")
	if !ok {
		tb.Fatal("sgemm not registered")
	}
	prog, err := spec.Compile(ptxas.Options{Schedule: schedule})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := cuda.NewContext(sim.KeplerK10())
	res, err := spec.Run(ctx, prog, "medium")
	if err != nil {
		tb.Fatal(err)
	}
	if res.VerifyErr != nil {
		tb.Fatal(res.VerifyErr)
	}
}

// parallelBenchSampled runs sgemm(medium) with the PC sampler attached at
// the given period (0 = sampling off). Recorded so the pcsamp overhead at
// the default cadence stays visible next to the engine baselines.
func parallelBenchSampled(tb testing.TB, period uint64) {
	spec, ok := workloads.Get("parboil.sgemm")
	if !ok {
		tb.Fatal("sgemm not registered")
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := cuda.NewContext(sim.KeplerK10())
	if period > 0 {
		ctx.Device().PCSamp = pcsamp.New(period)
	}
	res, err := spec.Run(ctx, prog, "medium")
	if err != nil {
		tb.Fatal(err)
	}
	if res.VerifyErr != nil {
		tb.Fatal(res.VerifyErr)
	}
}

// parallelBenchCampaign runs a small vecadd fault campaign at the given
// worker count.
func parallelBenchCampaign(tb testing.TB, workers int) {
	spec, ok := workloads.Get("demo.vecadd")
	if !ok {
		tb.Fatal("vecadd not registered")
	}
	c := &faults.Campaign{
		Spec: spec, Dataset: "small",
		Injections: 24, Seed: 7, Config: sim.MiniGPU(),
		Workers: workers,
	}
	if _, err := c.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkParallelSpeedup compares sequential-SM vs concurrent-SM launch
// execution and 1-worker vs NumCPU-worker campaigns. On a single-core host
// the ratios collapse to ~1x; the speedup materializes with cores.
func BenchmarkParallelSpeedup(b *testing.B) {
	b.Run("sms=sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelBenchLaunch(b, true)
		}
	})
	b.Run("sms=parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelBenchLaunch(b, false)
		}
	})
	b.Run("sched=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelBenchSched(b, false)
		}
	})
	b.Run("sched=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelBenchSched(b, true)
		}
	})
	b.Run("pcsamp=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelBenchSampled(b, 0)
		}
	})
	b.Run("pcsamp=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelBenchSampled(b, pcsamp.DefaultPeriod)
		}
	})
	b.Run("campaign-workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelBenchCampaign(b, 1)
		}
	})
	b.Run("campaign-workers=ncpu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelBenchCampaign(b, runtime.NumCPU())
		}
	})
}

// benchParallelReport is the BENCH_parallel.json schema.
type benchParallelReport struct {
	Host struct {
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
	} `json:"host"`
	Note    string             `json:"note"`
	Seconds map[string]float64 `json:"seconds"`
	Speedup map[string]float64 `json:"speedup"`
}

// TestWriteBenchParallelJSON regenerates BENCH_parallel.json. It is opt-in
// (set SASSI_WRITE_BENCH=1) so regular test runs stay fast and the checked-
// in numbers change only deliberately.
func TestWriteBenchParallelJSON(t *testing.T) {
	if os.Getenv("SASSI_WRITE_BENCH") == "" {
		t.Skip("set SASSI_WRITE_BENCH=1 to rewrite BENCH_parallel.json")
	}
	timeIt := func(f func()) float64 {
		const reps = 3
		best := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best.Seconds()
	}

	var r benchParallelReport
	r.Host.NumCPU = runtime.NumCPU()
	r.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Host.GoVersion = runtime.Version()
	r.Host.GOOS = runtime.GOOS
	r.Host.GOARCH = runtime.GOARCH
	r.Seconds = map[string]float64{
		"launch_sms_sequential": timeIt(func() { parallelBenchLaunch(t, true) }),
		"launch_sms_parallel":   timeIt(func() { parallelBenchLaunch(t, false) }),
		"launch_sched_off":      timeIt(func() { parallelBenchSched(t, false) }),
		"launch_sched_on":       timeIt(func() { parallelBenchSched(t, true) }),
		"launch_pcsamp_off":     timeIt(func() { parallelBenchSampled(t, 0) }),
		"launch_pcsamp_on":      timeIt(func() { parallelBenchSampled(t, pcsamp.DefaultPeriod) }),
		"campaign_workers_1":    timeIt(func() { parallelBenchCampaign(t, 1) }),
		"campaign_workers_ncpu": timeIt(func() { parallelBenchCampaign(t, runtime.NumCPU()) }),
	}
	r.Speedup = map[string]float64{
		"sms":      r.Seconds["launch_sms_sequential"] / r.Seconds["launch_sms_parallel"],
		"campaign": r.Seconds["campaign_workers_1"] / r.Seconds["campaign_workers_ncpu"],
		"sched":    r.Seconds["launch_sched_off"] / r.Seconds["launch_sched_on"],
		// Overhead ratio, not a speedup: >1 means sampling costs time.
		"pcsamp_overhead": r.Seconds["launch_pcsamp_on"] / r.Seconds["launch_pcsamp_off"],
	}
	if r.Host.NumCPU <= 1 {
		r.Note = "single-core host: concurrent paths run but cannot speed up; " +
			"re-run with SASSI_WRITE_BENCH=1 on a multi-core machine for the speedup numbers"
	} else {
		r.Note = "best of 3 wall-clock runs per configuration"
	}

	out, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_parallel.json: %s", out)
}
