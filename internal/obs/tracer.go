package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Process IDs partition the timeline into Perfetto process groups: host
// phases (compile, instrument, campaign control) run on wall-clock time,
// the device lanes run on modeled cycles, and campaign workers get a lane
// per worker.
const (
	PidHost     = 0 // wall-clock µs: compile, instrument, launch wrappers
	PidDevice   = 1 // modeled cycles: one lane (tid) per SM
	PidCampaign = 2 // wall-clock µs: one lane per fault-campaign worker
)

// Conventional thread ids within PidHost.
const (
	TidHostMain    = 0 // top-level driver: launches, drains, reports
	TidHostCompile = 1 // compile + instrument phases (CompileCache builds)
)

// traceEvent is one Chrome trace-event object. Only the "X" (complete)
// and "M" (metadata) phases are emitted.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer records spans and writes them as Chrome trace-event JSON, the
// format Perfetto and chrome://tracing load directly. A nil *Tracer is a
// valid disabled tracer: every method is a no-op, so call sites need no
// flag checks beyond the nil test they already do for speed.
//
// Recording is mutex-guarded (spans are emitted at CTA/kernel/dispatch
// granularity, never per instruction, so contention is negligible), and
// WriteJSON sorts events by (pid, tid, ts, name) so output is
// deterministic even when SM goroutines raced to record.
type Tracer struct {
	mu      sync.Mutex
	events  []traceEvent
	start   time.Time
	dropped uint64

	// MaxEvents caps the buffer (0 = default 1<<20). Spans beyond the cap
	// are counted in the trace_dropped metadata instead of silently lost.
	MaxEvents int
}

// NewTracer returns a tracer whose host clock starts now.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

// Now returns the host-lane timestamp (µs since the tracer started).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return float64(time.Since(t.start)) / float64(time.Microsecond)
}

func (t *Tracer) add(ev traceEvent) {
	t.mu.Lock()
	max := t.MaxEvents
	if max == 0 {
		max = 1 << 20
	}
	if len(t.events) >= max && ev.Ph != "M" {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Span records a complete span on (pid, tid) with explicit timestamps in
// that pid's time domain (µs for host lanes, cycles for device lanes).
func (t *Tracer) Span(pid, tid int, name string, ts, dur float64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(traceEvent{Name: name, Ph: "X", Ts: ts, Dur: dur, Pid: pid, Tid: tid, Args: args})
}

// HostSpan times fn on a host lane and records it.
func (t *Tracer) HostSpan(tid int, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	ts := t.Now()
	fn()
	t.Span(PidHost, tid, name, ts, t.Now()-ts, nil)
}

// NameProcess attaches a display name to a pid.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.add(traceEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}})
}

// NameThread attaches a display name to a (pid, tid) lane.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.add(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}})
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the JSON object format ({"traceEvents": [...]}), which both
// Perfetto and chrome://tracing accept and which leaves room for metadata.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"otherData,omitempty"`
}

// WriteJSON serializes the trace. Events are sorted (metadata first, then
// by pid, tid, ts, name) so the bytes are a deterministic function of the
// recorded spans regardless of goroutine interleaving.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte(`{"traceEvents":[],"displayTimeUnit":"ms"}`))
		return err
	}
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	dropped := t.dropped
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.Name < b.Name
	})
	f := traceFile{TraceEvents: events, DisplayTimeUnit: "ms"}
	if dropped > 0 {
		f.Metadata = map[string]any{"trace_dropped": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}
