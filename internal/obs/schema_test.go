package obs_test

// Chrome-trace schema validation against a real instrumented run: this is
// the test CI's trace artifact step leans on. It runs rodinia.bfs under the
// branch profiler with a live Tracer, serializes the timeline, and checks
// every event against the trace-event JSON schema Perfetto loads.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/obs"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// traceDoc mirrors the JSON-object form of the Chrome trace-event format.
type traceDoc struct {
	TraceEvents     []traceEv `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

type traceEv struct {
	Ph   string         `json:"ph"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Name string         `json:"name"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

// tracedBFSRun executes an instrumented rodinia.bfs with tracing on and
// returns the serialized trace JSON.
func tracedBFSRun(t *testing.T) []byte {
	t.Helper()
	spec, ok := workloads.Get("rodinia.bfs")
	if !ok {
		t.Fatal("rodinia.bfs not registered")
	}
	tr := obs.NewTracer()
	tr.NameProcess(obs.PidHost, "host (wall µs)")
	tr.NameThread(obs.PidHost, obs.TidHostMain, "main")
	tr.NameThread(obs.PidHost, obs.TidHostCompile, "compile+instrument")

	ctx := cuda.NewContext(sim.MiniGPU())
	ctx.Device().Trace = tr

	var prog *sass.Program
	var err error
	tr.HostSpan(obs.TidHostCompile, "compile:"+spec.Name, func() {
		prog, err = spec.Compile(ptxas.Options{})
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	bp := handlers.NewBranchProfiler(ctx)
	opts := bp.Options()
	opts.Trace = tr
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatalf("instrument: %v", err)
	}
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(bp.Handler())
	rt.Attach(ctx.Device())

	var res *workloads.Result
	tr.HostSpan(obs.TidHostMain, "run:"+spec.Name, func() {
		res, err = spec.Run(ctx, prog, spec.DefaultDataset())
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("verification: %v", res.VerifyErr)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	return buf.Bytes()
}

// TestTraceJSONSchema validates the emitted trace against the trace-event
// schema: well-formed JSON, known phase codes, required per-phase fields,
// and the process/thread lane layout the tracer promises.
func TestTraceJSONSchema(t *testing.T) {
	raw := tracedBFSRun(t)
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	if err := validateTraceEvents(doc.TraceEvents); err != nil {
		t.Error(err)
	}

	// Lane layout: the device process names one lane per SM, and the run
	// produced compile, instrument, kernel, and handler spans.
	smLanes := map[int]bool{}
	var sawCompile, sawInstrument, sawKernel, sawHandler, sawRun bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && *ev.Pid == obs.PidDevice {
			smLanes[*ev.Tid] = true
		}
		switch {
		case strings.HasPrefix(ev.Name, "compile:"):
			sawCompile = true
		case strings.HasPrefix(ev.Name, "instrument:"):
			sawInstrument = true
		case strings.HasPrefix(ev.Name, "kernel:"):
			sawKernel = true
		case strings.HasPrefix(ev.Name, "handler:"):
			sawHandler = true
		case strings.HasPrefix(ev.Name, "run:"):
			sawRun = true
		}
	}
	cfg := sim.MiniGPU()
	for sm := 0; sm < cfg.NumSMs; sm++ {
		if !smLanes[sm] {
			t.Errorf("no device spans on SM %d lane", sm)
		}
	}
	for name, saw := range map[string]bool{
		"compile": sawCompile, "instrument": sawInstrument,
		"kernel": sawKernel, "handler": sawHandler, "run": sawRun,
	} {
		if !saw {
			t.Errorf("no %s:* span in trace", name)
		}
	}
}

// validateTraceEvents is the schema check proper, shared with nothing but
// written standalone so CI failures print one violation per event.
func validateTraceEvents(evs []traceEv) error {
	var errs []string
	for i, ev := range evs {
		fail := func(msg string) { errs = append(errs, fmt.Sprintf("event %d (%s %q): %s", i, ev.Ph, ev.Name, msg)) }
		switch ev.Ph {
		case "X":
			if ev.Pid == nil || ev.Tid == nil {
				fail("complete event missing pid/tid")
			}
			if ev.Ts == nil || *ev.Ts < 0 {
				fail("complete event missing ts or ts < 0")
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				fail("complete event missing dur or dur < 0")
			}
			if ev.Name == "" {
				fail("complete event missing name")
			}
		case "C":
			if ev.Pid == nil || ev.Ts == nil || ev.Name == "" || len(ev.Args) == 0 {
				fail("counter event needs pid, ts, name, args")
			}
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				fail("unknown metadata record")
			}
			if v, ok := ev.Args["name"].(string); !ok || v == "" {
				fail("metadata missing args.name")
			}
		default:
			fail("unknown phase code")
		}
		if len(errs) > 20 {
			errs = append(errs, "... (truncated)")
			break
		}
	}
	if errs != nil {
		return fmt.Errorf("trace schema violations:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}
