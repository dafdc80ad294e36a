package handlers_test

import (
	"fmt"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// TestHandlerBodyIsUnmodeled: beyond the flat HandlerBodyCost a JCAL
// charges, what a handler body does is host code the model does not see.
// So for every tools-suite program under each case-study tool and the site
// profiler, every launch's KernelStats — cycles, instructions, stalls,
// transactions — with the real handler equal those with an empty body of
// the same What. The benchmark's handlers.body_* decomposition, which
// subtracts the two runs, assumes exactly this.
func TestHandlerBodyIsUnmodeled(t *testing.T) {
	empty := func(*device.Warp, sassi.HandlerArgs) {}
	for _, p := range toolPrograms {
		for _, vt := range viewTools {
			t.Run(p+"/"+vt.name, func(t *testing.T) {
				withBody := launchStats(t, p, vt, nil)
				if len(withBody) == 0 || withBody[0].HandlerCalls == 0 {
					t.Fatalf("no handler call: %v", withBody)
				}
				if noop := launchStats(t, p, vt, empty); fmt.Sprint(noop) != fmt.Sprint(withBody) {
					t.Errorf("KernelStats differ with an empty body\n--- handler ---\n%v\n--- empty ---\n%v", withBody, noop)
				}
			})
		}
	}
}

// launchStats runs program under vt's instrumentation with its handler, or
// with body in place of the handler's when body is not nil, and returns
// every launch's KernelStats.
func launchStats(t *testing.T, program string, vt viewTool, body sassi.HandlerFunc) []sim.KernelStats {
	t.Helper()
	spec, _ := workloads.Get(program)
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.KeplerK10())
	var stats []sim.KernelStats
	ctx.Subscribe(cuda.LaunchCallbacks{PostLaunch: func(_ string, _ int, s *sim.KernelStats, _ error) {
		if s != nil {
			stats = append(stats, *s)
		}
	}})
	opts, h := vt.tool(ctx)
	if body != nil {
		h = &sassi.Handler{Name: h.Name, What: h.What, Fn: body}
	}
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatal(err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(h)
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil || res.VerifyErr != nil {
		t.Fatal(err, res.VerifyErr)
	}
	return stats
}
