package handlers_test

import (
	"slices"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// runCFI executes a workload (or mutant) under the CFI checker, optionally
// composing an injector ahead of the audit in the same dispatch, with SMs
// simulated one after another when sequential is set. It
// returns the checker and the run error (mutants and injections may fault
// or mis-verify; the caller decides what is acceptable).
func runCFI(t *testing.T, spec *workloads.Spec, inj *handlers.CtrlInjector, sequential bool) (*handlers.CFIChecker, error) {
	t.Helper()
	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		t.Fatalf("%s: compile: %v", spec.Name, err)
	}
	chk := handlers.NewCFIChecker()
	opts := chk.Options()
	// Mutants are corrupt by construction; the CFI pass itself is the
	// gate under test, not the instrumentor's verifier.
	opts.Verify = analysis.VerifyOff
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatalf("%s: instrument: %v", spec.Name, err)
	}
	if err := chk.Prepare(prog); err != nil {
		t.Fatalf("%s: prepare: %v", spec.Name, err)
	}

	cfg := sim.MiniGPU()
	cfg.SequentialSMs = sequential
	// Corrupted control state can spin a warp; a tight watchdog keeps the
	// hang outcomes fast (the calltree kernel retires in well under this).
	cfg.WatchdogWarpInstrs = 100_000
	ctx := cuda.NewContext(cfg)
	rt := sassi.NewRuntime(prog)
	h := chk.Handler()
	if inj != nil {
		h = &sassi.Handler{
			Name: handlers.CFIHandlerSymbol,
			Fn: func(w *device.Warp, args sassi.HandlerArgs) {
				inj.Inject(w, args) // corrupt first...
				chk.Audit(w, args)  // ...so the same site's audit sees it
			},
		}
		ctx.Subscribe(cuda.LaunchCallbacks{PreLaunch: func(kernel string, idx int) {
			inj.SetInvocation(idx)
		}})
	}
	rt.MustRegister(h)
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err == nil && res.VerifyErr != nil {
		err = res.VerifyErr
	}
	return chk, err
}

// TestCFICheckerCleanRuns pins the zero-false-positive side of the
// contract: clean workloads, including the call-tree demo, produce no
// violations and still verify under full instrumentation.
func TestCFICheckerCleanRuns(t *testing.T) {
	for _, name := range []string{"demo.calltree", "demo.vecadd", "parboil.bfs"} {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("workload %s not registered", name)
		}
		chk, err := runCFI(t, spec, nil, true)
		if err != nil {
			t.Fatalf("%s: clean run failed: %v", name, err)
		}
		if v := chk.Violations(); len(v) != 0 {
			t.Errorf("%s: false positives on a clean run: %v", name, v)
		}
	}
}

func hasKind(vs []handlers.CFIViolation, kind string) bool {
	for _, v := range vs {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

// TestCFICheckerDetectsInjectedCorruption drives each corruption class
// through the composed injector+checker handler on the call-tree demo and
// checks the audit catches it at the next site.
func TestCFICheckerDetectsInjectedCorruption(t *testing.T) {
	spec, ok := workloads.Get("demo.calltree")
	if !ok {
		t.Fatal("demo.calltree not registered")
	}
	cases := []struct {
		class handlers.CtrlClass
		nth   uint64
		kinds []string // any of these counts as detection
	}{
		{handlers.CtrlRetBitFlip, 0, []string{"call-stack", "return-address"}},
		{handlers.CtrlDivPCBitFlip, 0, []string{"div-stack"}},
		{handlers.CtrlDivMaskBitFlip, 0, []string{"div-stack"}},
		{handlers.CtrlForgedCall, 2, []string{"call-stack", "return-address"}},
	}
	for _, c := range cases {
		t.Run(c.class.String(), func(t *testing.T) {
			target := handlers.CtrlWarpKey{Invocation: 0, CTA: 0, Warp: 0}
			inj := handlers.NewCtrlInjector(c.class, target, c.nth, 1, 3, 31)
			chk, runErr := runCFI(t, spec, inj, true)
			fired, desc := inj.Injected()
			if !fired {
				t.Fatalf("injection never fired (run err: %v)", runErr)
			}
			vs := chk.Violations()
			detected := false
			for _, k := range c.kinds {
				if hasKind(vs, k) {
					detected = true
				}
			}
			if !detected {
				t.Errorf("corruption %q undetected; violations: %v (run err: %v)", desc, vs, runErr)
			}
		})
	}
}

// TestCFICheckerRejectsMutants pins the dynamic half of the
// static/dynamic cross-validation: every CFI seed mutant is flagged — at
// load time by the fail-closed target-set validation, and (where the
// corrupt path executes) at runtime by the matching audit kind.
func TestCFICheckerRejectsMutants(t *testing.T) {
	cases := []struct {
		name    string
		runtime string // expected runtime kind, "" if load-time only
	}{
		{"mutant.cfi-ret-nocall", "ret-underflow"},
		{"mutant.cfi-cal-midblock", ""},
		{"mutant.cfi-ssy-skew", "sync-underflow"},
	}
	for _, c := range cases {
		t.Run(strings.TrimPrefix(c.name, "mutant."), func(t *testing.T) {
			spec, ok := workloads.GetMutant(c.name)
			if !ok {
				t.Fatalf("mutant %s not registered", c.name)
			}
			chk, _ := runCFI(t, spec, nil, true)
			vs := chk.Violations()
			if !hasKind(vs, "static") {
				t.Errorf("no load-time static violation; got %v", vs)
			}
			if c.runtime != "" && !hasKind(vs, c.runtime) {
				t.Errorf("missing runtime %q violation; got %v", c.runtime, vs)
			}
		})
	}
}

// TestCtrlProfilerOrderIsSMOrderFree profiles the call-tree demo's
// return-address sites twenty times at concurrent SMs and asserts Pick
// enumerates the warps in one order every time: a control campaign draws
// its targets through Pick, so an order that follows how the SM goroutines
// interleave draws different warps from run to run.
func TestCtrlProfilerOrderIsSMOrderFree(t *testing.T) {
	spec, ok := workloads.Get("demo.calltree")
	if !ok {
		t.Fatal("demo.calltree not registered")
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sassi.Instrument(prog, handlers.NewCFIChecker().Options()); err != nil {
		t.Fatal(err)
	}
	order := func() []handlers.CtrlWarpKey {
		p := handlers.NewCtrlProfiler(handlers.CtrlRetBitFlip)
		ctx := cuda.NewContext(sim.MiniGPU())
		ctx.Subscribe(cuda.LaunchCallbacks{PreLaunch: func(_ string, idx int) { p.SetInvocation(idx) }})
		rt := sassi.NewRuntime(prog)
		rt.MustRegister(&sassi.Handler{Name: handlers.CFIHandlerSymbol, Fn: p.Profile})
		rt.Attach(ctx.Device())
		if _, err := spec.Run(ctx, prog, spec.DefaultDataset()); err != nil {
			t.Fatal(err)
		}
		var keys []handlers.CtrlWarpKey
		for flat := uint64(0); flat < p.Total(); flat++ {
			key, _, _ := p.Pick(flat)
			if len(keys) == 0 || keys[len(keys)-1] != key {
				keys = append(keys, key)
			}
		}
		return keys
	}
	want := order()
	if len(want) < 2 {
		t.Fatalf("only %d warps reach a return-address site", len(want))
	}
	for i := 1; i < 20; i++ {
		if got := order(); !slices.Equal(got, want) {
			t.Fatalf("run %d enumerates %v, run 0 %v", i, got, want)
		}
	}
}
