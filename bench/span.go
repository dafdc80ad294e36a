package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call into a layer. Name is "<package>.<call>"; Tag is
// the case-study tool (or another variant label) the call worked for, so one
// name can be totalled per tool; Op is the name of the operation the call
// belongs to, shared by every span of that operation.
type span struct {
	Name   string
	Tag    string
	Op     string
	Parent int // index into recorder.spans, -1 for a root
	Start  time.Duration
	End    time.Duration
	Bytes  uint64 // heap bytes allocated between Start and End
	Allocs uint64 // heap objects allocated between Start and End
	Counts map[string]float64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory. It is used from the
// benchmark's single client goroutine only. A nil recorder is the disabled
// instance: every method is a no-op, so untraced runs execute the same code.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	tag   string
	op    string

	heap [2]metrics.Sample
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.heap[0].Name = "/gc/heap/allocs:bytes"
	r.heap[1].Name = "/gc/heap/allocs:objects"
	return r
}

// heapNow reads the cumulative heap allocation counters without stopping the
// world (runtime.ReadMemStats would cost tens of microseconds per launch).
// They lag by up to one span of each size class, which averages out over the
// hundreds of spans a metric sums.
func (r *recorder) heapNow() (bytes, objects uint64) {
	metrics.Read(r.heap[:])
	return r.heap[0].Value.Uint64(), r.heap[1].Value.Uint64()
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	b, a := r.heapNow()
	r.spans = append(r.spans, span{Name: name, Tag: r.tag, Op: r.op, Parent: parent, Bytes: b, Allocs: a})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	r.spans[i].Start = time.Since(r.t0)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	if n := len(r.open); n == 0 || r.open[n-1] != i {
		panic(fmt.Sprintf("bench: span %d closed out of order (open %v)", i, r.open))
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.End = now
	b, a := r.heapNow()
	s.Bytes, s.Allocs = b-s.Bytes, a-s.Allocs
}

// setTag makes tag the tag of spans begun from now on and returns the
// previous one.
func (r *recorder) setTag(tag string) (prev string) {
	if r == nil {
		return ""
	}
	prev, r.tag = r.tag, tag
	return prev
}

// do times f as one span.
func (r *recorder) do(name string, f func()) {
	i := r.begin(name)
	f()
	r.end(i)
}

// count adds v to counter name on the innermost open span.
func (r *recorder) count(name string, v uint64) {
	if r == nil || len(r.open) == 0 {
		return
	}
	s := &r.spans[r.open[len(r.open)-1]]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[name] += float64(v)
}

// passTotals are one root span's descendants totalled by span name and by
// "name@tag". Self time is a span's duration minus its direct children's.
type passTotals struct {
	Wall   float64
	Total  map[string]float64 // seconds
	Self   map[string]float64 // seconds
	Bytes  map[string]uint64
	Allocs map[string]uint64
	Counts map[string]float64
}

// keys are the names a span's time or counter is totalled under.
func (s *span) keys(name string) []string {
	if s.Tag == "" {
		return []string{name}
	}
	return []string{name, name + "@" + s.Tag}
}

// totals sums the spans in [root, end), which must be root and all of its
// descendants. Spans still open are ignored.
func (r *recorder) totals(root, end int) *passTotals {
	p := &passTotals{
		Wall:  r.spans[root].dur().Seconds(),
		Total: map[string]float64{}, Self: map[string]float64{},
		Bytes: map[string]uint64{}, Allocs: map[string]uint64{},
		Counts: map[string]float64{},
	}
	self := selfTimes(r.spans[root:end], root)
	for i := root; i < end; i++ {
		s := &r.spans[i]
		for _, k := range s.keys(s.Name) {
			p.Total[k] += s.dur().Seconds()
			p.Self[k] += self[i-root].Seconds()
			p.Bytes[k] += s.Bytes
			p.Allocs[k] += s.Allocs
		}
		for c, v := range s.Counts {
			for _, k := range s.keys(c) {
				p.Counts[k] += v
			}
		}
	}
	return p
}

// selfTimes returns, for each span of a slice whose Parent indices are
// offset by base, its duration minus the durations of its direct children.
func selfTimes(spans []span, base int) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent - base; p >= 0 && p < len(spans) {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// layerOf is the package a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly. Spans nest strictly, so one lane shows the call structure;
// cat is the layer.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		args := map[string]any{"bytes": s.Bytes, "allocs": s.Allocs, "parent": s.Parent, "id": i}
		if s.Op != "" {
			args["op"] = s.Op
		}
		if s.Tag != "" {
			args["tag"] = s.Tag
		}
		for k, v := range s.Counts {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("bench: encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write trace: %w", err)
	}
	return nil
}
