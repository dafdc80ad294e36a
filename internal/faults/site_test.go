package faults

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// siteSeen is what a recording handler saw of the target thread's site,
// the InstrIndex-th instruction it counts: the instruction, the value of
// its first GPR destination, and the handler calls from there to the end
// of the launch.
type siteSeen struct {
	off   int32
	value uint32
	calls int
}

// runRecorded runs c's program once, fault-free, with a handler that
// counts the target thread's site instructions as the injector does —
// from site.InstrIndex when at is set — in place of the injector. The
// target launch runs only's twin, narrowed to at. It
// returns what the handler saw and the target launch's statistics.
func runRecorded(t *testing.T, c *Campaign, g *goldenRun, site handlers.InjectionSite, at *sim.TwinSite, only func(string, int) *sim.Twin) (siteSeen, sim.KernelStats) {
	t.Helper()
	var seen siteSeen
	var stats sim.KernelStats
	count, reached := uint64(0), false
	if at != nil {
		count = site.InstrIndex
		only = atSite(only, at)
	}
	rt := sassi.NewRuntime(g.inst)
	rt.MustRegister(&sassi.Handler{Name: "sassi_errorinj_handler", What: sassi.PassRegisterInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			if reached {
				seen.calls++
			}
			for l := w.First(); l >= 0; l = w.Next(l) {
				if w.Lane(l).GlobalThreadIdx() != site.ThreadID || !args.BP.InstrWillExecute(l) {
					continue
				}
				if count == site.InstrIndex {
					reached, seen.calls, seen.off = true, 1, args.BP.InsOffset()
					if args.RP.NumGPRDsts() > 0 {
						seen.value = args.RP.GetRegValue(l, args.RP.GPRDst(0))
					}
				}
				count++
			}
		}})
	ctx := cuda.NewContext(c.injectionConfig(g))
	rt.Attach(ctx.Device())
	ctx.Subscribe(cuda.LaunchCallbacks{
		Twin: only,
		PostLaunch: func(_ string, idx int, st *sim.KernelStats, err error) {
			if idx == site.Invocation {
				stats = *st
			}
			if err != nil {
				t.Errorf("launch %d: %v", idx, err)
			}
		},
	})
	if _, err := c.Spec.Run(ctx, g.prog, c.Dataset); err != nil {
		t.Fatal(err)
	}
	return seen, stats
}

// TestSiteRunsOneBlock: a target warp narrowed to its site (sim.TwinSite)
// reaches the same dynamic instance of the same instruction, with the same
// value, as the warp that runs instrumented code throughout; it runs that
// site's after-block and no other; and it charges the blocks it skips, so
// that the launch's MaxWarpInstrs, the watchdog's measure, is the whole
// warp's.
func TestSiteRunsOneBlock(t *testing.T) {
	const runs = 12
	for _, app := range []string{"demo.vecadd", "parboil.sgemm", "rodinia.nn", "rodinia.gaussian"} {
		spec, ok := workloads.Get(app)
		if !ok {
			t.Fatalf("%s not registered", app)
		}
		c := &Campaign{Spec: spec, Dataset: spec.DefaultDataset(), Seed: 2015, Config: sim.MiniGPU()}
		c.setDefaults()
		g, err := c.golden(sassi.NewCompileCache())
		if err != nil {
			t.Fatal(err)
		}
		probe, err := newSiteProbe(g.prog, g.inst)
		if err != nil {
			t.Fatal(err)
		}
		for run := range runs {
			site := c.selectSite(g.profiles, g.sites, newRNG(sass.SplitMix(c.Seed, uint64(run))))
			ctaThreads := g.profiles[site.Invocation].ctaThreads
			cta, warp := int(site.ThreadID)/ctaThreads, int(site.ThreadID)%ctaThreads/sim.WarpSize
			only := twinFor(g.inst, site.Invocation, cta, warp, false)
			at := &sim.TwinSite{Thread: site.ThreadID, Instance: site.InstrIndex}

			whole, wholeStats := runRecorded(t, c, g, site, nil, only)
			narrow, narrowStats := runRecorded(t, c, g, site, at, only)
			if whole.calls == 0 || narrow.off != whole.off || narrow.value != whole.value {
				t.Errorf("%s run %d: site at %#x value %#x, the whole warp's at %#x value %#x",
					app, run, narrow.off, narrow.value, whole.off, whole.value)
			}
			i := sass.IndexOfOffset(whole.off)
			if block := uint64(probe.weights[g.profiles[site.Invocation].kernel][i]); narrowStats.InjectedWarpInstrs != block || narrow.calls != 1 {
				t.Errorf("%s run %d: %d injected instructions and %d handler calls, want the site's block of %d and one call",
					app, run, narrowStats.InjectedWarpInstrs, narrow.calls, block)
			}
			if narrowStats.MaxWarpInstrs != wholeStats.MaxWarpInstrs {
				t.Errorf("%s run %d: MaxWarpInstrs %d, the whole warp's %d", app, run, narrowStats.MaxWarpInstrs, wholeStats.MaxWarpInstrs)
			}
		}
	}
}
