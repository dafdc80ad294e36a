package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(3)
	r.Counter("a.first").Inc()
	r.Gauge("m.middle").Set(7)
	r.Histogram("h.hist").Observe(5)
	r.Sharded("s.shard", 2).AddShard(1, 9)
	snap := r.Snapshot()
	var names []string
	for _, m := range snap {
		names = append(names, m.Name)
	}
	want := []string{"a.first", "h.hist", "m.middle", "s.shard", "z.last"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot order %v, want %v", names, want)
	}
}

func TestNilRegistryAndMetricsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.Sharded("x", 4).AddShard(0, 1)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v", got)
	}
	if r.Flat("sm") != nil {
		t.Fatal("nil registry Flat should be nil")
	}
	var tr *Tracer
	tr.Span(PidDevice, 0, "x", 0, 1, nil)
	tr.NameThread(PidDevice, 0, "SM 0")
	ran := false
	tr.HostSpan(0, "f", func() { ran = true })
	if !ran {
		t.Fatal("nil tracer HostSpan must still run fn")
	}
}

// TestShardedCounterOrderIndependentMerge adds the same per-shard counts in
// ascending and in descending shard order: the snapshots are equal.
func TestShardedCounterOrderIndependentMerge(t *testing.T) {
	snap := func(order []int) []Metric {
		r := NewRegistry()
		s := r.Sharded("c", 8)
		for _, shard := range order {
			for j := 0; j < 1000; j++ {
				s.AddShard(shard, uint64(shard))
			}
		}
		return r.Snapshot()
	}
	up, down := snap([]int{0, 1, 2, 3, 4, 5, 6, 7}), snap([]int{7, 6, 5, 4, 3, 2, 1, 0})
	if !reflect.DeepEqual(up, down) {
		t.Fatalf("snapshots differ by add order:\n%+v\n%+v", up, down)
	}
	want := uint64(0)
	for i := 0; i < 8; i++ {
		want += uint64(i) * 1000
	}
	if m := up[0]; m.Value != want || m.Shards[3] != 3000 {
		t.Fatalf("sharded total = %d, shard 3 = %d; want %d, 3000", m.Value, m.Shards[3], want)
	}
}

func TestShardedCounterWidens(t *testing.T) {
	r := NewRegistry()
	s := r.Sharded("w", 2)
	s.AddShard(1, 5)
	s2 := r.Sharded("w", 4)
	if s2 != s {
		t.Fatal("widening must preserve identity")
	}
	if m := r.Snapshot()[0]; len(m.Shards) != 4 || m.Shards[1] != 5 {
		t.Fatalf("widened counter lost state: shards=%v", m.Shards)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 3, 8, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1013 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	bks := h.Buckets()
	total := uint64(0)
	for _, b := range bks {
		total += b.Count
	}
	if total != 6 {
		t.Fatalf("bucket counts sum to %d, want 6", total)
	}
}

func TestTracerWriteJSONDeterministic(t *testing.T) {
	mk := func(order []int) []byte {
		tr := NewTracer()
		tr.NameProcess(PidDevice, "device")
		for _, i := range order {
			tr.NameThread(PidDevice, i, "SM "+itoa(i))
			tr.Span(PidDevice, i, "cta", float64(10*i), 5, nil)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := mk([]int{0, 1, 2, 3})
	b := mk([]int{3, 1, 0, 2})
	if !bytes.Equal(a, b) {
		t.Fatalf("trace bytes depend on recording order:\n%s\nvs\n%s", a, b)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no events")
	}
}

func TestTracerCapCountsDropped(t *testing.T) {
	tr := NewTracer()
	tr.MaxEvents = 2
	for i := 0; i < 5; i++ {
		tr.Span(PidDevice, 0, "s", float64(i), 1, nil)
	}
	if tr.Len() != 2 {
		t.Fatalf("len=%d, want 2", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"trace_dropped":3`) {
		t.Fatalf("dropped count 3 not surfaced in trace metadata: %s", buf.String())
	}
}

func TestStatsJSONSortedKeys(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	r.Sharded("c.three", 2).AddShard(0, 3)
	s := NewStats(r)
	s.Workload = "demo"
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia, ib, ic := strings.Index(out, `"a.one"`), strings.Index(out, `"b.two"`), strings.Index(out, `"c.three"`)
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Fatalf("metric keys not sorted: a=%d b=%d c=%d in\n%s", ia, ib, ic, out)
	}
	if !strings.Contains(out, `"c.three.sm0": 3`) {
		t.Fatalf("sharded flattening missing:\n%s", out)
	}
	if si, wi := strings.Index(out, `"schema"`), strings.Index(out, `"workload"`); !(si >= 0 && si < wi) {
		t.Fatalf("fixed field order violated:\n%s", out)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.issue.warp_instrs").Add(42)
	r.Histogram("handlers.dispatch_active_lanes").Observe(32)
	r.Sharded("sim.cycles", 2).AddShard(1, 7)
	h := Handler(r, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE sim_issue_warp_instrs counter",
		"sim_issue_warp_instrs 42",
		`sim_cycles{sm="1"} 7`,
		"handlers_dispatch_active_lanes_count 1",
		`handlers_dispatch_active_lanes_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats.json", nil))
	var s map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("/stats.json not JSON: %v", err)
	}
	if s["schema"] != StatsSchema {
		t.Fatalf("schema = %v", s["schema"])
	}
}

func TestHandlerMounts(t *testing.T) {
	r := NewRegistry()
	custom := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("profile-bytes"))
	})
	h := Handler(r, nil,
		Mount{Pattern: "/debug/sassiprof/profile", Handler: custom},
		Mount{Pattern: "/debug/nil", Handler: nil}) // nil mounts are skipped, not panics

	// The Go runtime profiler is mounted for free on every -http server.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline status = %d, want 200", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sassiprof/profile", nil))
	if rec.Code != 200 || rec.Body.String() != "profile-bytes" {
		t.Errorf("custom mount = %d %q, want the mounted handler's output", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/nil", nil))
	if rec.Code != 404 {
		t.Errorf("nil mount status = %d, want 404", rec.Code)
	}

	// The index page advertises the debug endpoints.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), "/debug/pprof/") {
		t.Errorf("index does not mention /debug/pprof/:\n%s", rec.Body.String())
	}
}
