package faults

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// launchSites is one launch's site space: per grid-flat thread counts and
// the largest warp instruction count of the instrumented program.
type launchSites struct {
	kernel        string
	counts        []uint64
	maxWarpInstrs uint64
}

// programs compiles c's golden and instrumented programs.
func programs(t *testing.T, c *Campaign) (prog, inst *sass.Program) {
	t.Helper()
	cache := sassi.NewCompileCache()
	inst, err := c.Spec.CompileInstrumented(cache, ptxas.Options{}, (&handlers.Injector{}).Options())
	if err != nil {
		t.Fatal(err)
	}
	if prog, err = c.Spec.CompileCached(cache, ptxas.Options{}); err != nil {
		t.Fatal(err)
	}
	return prog, inst
}

// probeSites runs prog over the whole grid with a campaign's site probe
// for inst attached and returns what every launch counted.
func probeSites(c *Campaign, prog, inst *sass.Program) ([]launchSites, error) {
	probe, err := newSiteProbe(prog, inst)
	if err != nil {
		return nil, err
	}
	ctx := cuda.NewContext(c.Config)
	ctx.Device().Probe = probe
	var out []launchSites
	ctx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(kernel string, _ int, _ *sim.KernelStats, err error) {
			if err == nil {
				out = append(out, launchSites{kernel, probe.counts, probe.maxWarpInstrs})
			}
		},
	})
	_, err = c.Spec.Run(ctx, prog, c.Dataset)
	return out, err
}

// injProfilerSites is the SASSI reference for the same site space: inst,
// the instrumented program, over the whole grid with InjProfiler as the
// handler after every register write — one device counter per thread for
// launches of up to maxThreads threads, reset between launches — and each
// launch's KernelStats.MaxWarpInstrs.
func injProfilerSites(c *Campaign, inst *sass.Program, maxThreads int) ([]launchSites, error) {
	ctx := cuda.NewContext(c.Config)
	prof := handlers.NewInjProfiler(ctx, maxThreads)
	rt := sassi.NewRuntime(inst)
	if err := rt.Register(prof.Handler()); err != nil {
		return nil, err
	}
	rt.Attach(ctx.Device())
	var out []launchSites
	var readErr error
	zero := make([]byte, 8*maxThreads)
	ctx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(kernel string, _ int, stats *sim.KernelStats, err error) {
			if err != nil {
				return
			}
			if stats.Threads > maxThreads {
				readErr = fmt.Errorf("launch of %s has %d threads, counters for %d", kernel, stats.Threads, maxThreads)
			}
			counts, err := prof.Counts()
			if err != nil {
				readErr = err
			}
			out = append(out, launchSites{kernel, counts, stats.MaxWarpInstrs})
			_ = ctx.MemcpyHtoD(prof.DevPtr(), zero)
		},
	})
	if _, err := c.Spec.Run(ctx, inst, c.Dataset); err != nil {
		return nil, err
	}
	return out, readErr
}

// TestSiteProbeMatchesInjProfiler is the site probe's oracle: on every
// registered workload's default dataset, on MiniGPU and KeplerK10, the
// golden run's probe counts, launch by launch, the same per-thread sites
// as InjProfiler in a whole-grid run of the instrumented program, and the
// same instrumented MaxWarpInstrs, which calibrates the injection runs'
// watchdog. parboil.bfs is skipped: its launches, and so its site space,
// depend on the order SMs reach global memory (DESIGN.md decision 7).
func TestSiteProbeMatchesInjProfiler(t *testing.T) {
	for _, cfg := range []sim.Config{sim.MiniGPU(), sim.KeplerK10()} {
		for _, spec := range workloads.All() {
			t.Run(cfg.Name+"/"+spec.Name, func(t *testing.T) {
				if spec.Name == "parboil.bfs" {
					t.Skip("SM-order-dependent launches (DESIGN.md decision 7)")
				}
				c := &Campaign{Spec: spec, Dataset: spec.DefaultDataset(), Config: cfg}
				prog, inst := programs(t, c)
				got, err := probeSites(c, prog, inst)
				if err != nil {
					t.Fatalf("golden run: %v", err)
				}
				most := 0
				for _, l := range got {
					most = max(most, len(l.counts))
				}
				want, err := injProfilerSites(c, inst, most)
				if err != nil {
					t.Fatalf("InjProfiler run: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d launches probed, %d profiled", len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					padded := append(slices.Clone(g.counts), make([]uint64, most-len(g.counts))...)
					if g.kernel != w.kernel || !slices.Equal(padded, w.counts) {
						t.Errorf("launch %d (%s): probed site counts differ from InjProfiler's (%s)", i, g.kernel, w.kernel)
					}
					if g.maxWarpInstrs != w.maxWarpInstrs {
						t.Errorf("launch %d (%s): probed MaxWarpInstrs %d, instrumented run %d", i, g.kernel, g.maxWarpInstrs, w.maxWarpInstrs)
					}
				}
			})
		}
	}
}

// TestSiteProbeIsTransparent: attaching the site probe to a golden run
// changes no launch's KernelStats, no output, no stdout and no PC sample,
// on every registered workload's default dataset but parboil.bfs, whose
// results depend on SM order (DESIGN.md decision 7).
func TestSiteProbeIsTransparent(t *testing.T) {
	type golden struct {
		stats  []sim.KernelStats
		result *workloads.Result
		locs   map[pcsamp.Loc]pcsamp.Counts
	}
	run := func(t *testing.T, spec *workloads.Spec, prog *sass.Program, probe sim.SiteProbe) golden {
		t.Helper()
		var g golden
		ctx := cuda.NewContext(sim.MiniGPU())
		samp := pcsamp.New(64)
		ctx.Device().PCSamp = samp
		if probe != nil {
			ctx.Device().Probe = probe
		}
		ctx.Subscribe(cuda.LaunchCallbacks{
			PostLaunch: func(_ string, _ int, stats *sim.KernelStats, _ error) { g.stats = append(g.stats, *stats) },
		})
		var err error
		if g.result, err = spec.Run(ctx, prog, spec.DefaultDataset()); err != nil {
			t.Fatal(err)
		}
		g.locs = samp.Profile().Locs
		return g
	}
	for _, spec := range workloads.All() {
		if spec.Name == "parboil.bfs" {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			prog, inst := programs(t, &Campaign{Spec: spec})
			probe, err := newSiteProbe(prog, inst)
			if err != nil {
				t.Fatal(err)
			}
			bare, probed := run(t, spec, prog, nil), run(t, spec, prog, probe)
			if !reflect.DeepEqual(bare.stats, probed.stats) {
				t.Errorf("KernelStats differ with the probe attached")
			}
			if !slices.Equal(bare.result.Output, probed.result.Output) || bare.result.Stdout != probed.result.Stdout {
				t.Errorf("output or stdout differs with the probe attached")
			}
			if !reflect.DeepEqual(bare.locs, probed.locs) {
				t.Errorf("PC samples differ with the probe attached")
			}
		})
	}
}

// TestSiteProbeRefusesForeignProgram: the weights come from an instrumented
// program whose originals are the golden program's; one that lacks a
// kernel, or whose originals differ, is an error, not a site space.
func TestSiteProbeRefusesForeignProgram(t *testing.T) {
	spec, _ := workloads.Get("demo.vecadd")
	prog, inst := programs(t, &Campaign{Spec: spec})
	if _, err := newSiteProbe(prog, inst); err != nil {
		t.Fatal(err)
	}
	if _, err := newSiteProbe(prog, sass.NewProgram()); err == nil {
		t.Error("instrumented program without the kernel accepted")
	}
	for name, edit := range map[string]func(k *sass.Kernel){
		"opcode":    func(k *sass.Kernel) { k.Instrs[0].Op = sass.OpNOP },
		"truncated": func(k *sass.Kernel) { k.Instrs = k.Instrs[:len(k.Instrs)-1] },
		"extra":     func(k *sass.Kernel) { k.Instrs = append(k.Instrs, sass.New(sass.OpEXIT, nil, nil)) },
	} {
		k := &sass.Kernel{Name: inst.Kernels[0].Name, Instrs: slices.Clone(inst.Kernels[0].Instrs)}
		edit(k)
		other := sass.NewProgram()
		other.AddKernel(k)
		if _, err := newSiteProbe(prog, other); err == nil {
			t.Errorf("%s: instrumented copy with different originals accepted", name)
		}
	}
}
