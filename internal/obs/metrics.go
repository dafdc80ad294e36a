// Package obs is the observability layer: a lock-cheap metrics registry
// (counters, gauges, histograms, with per-SM sharding), a span tracer that
// emits Chrome trace-event JSON loadable in Perfetto, an ordered stats-JSON
// writer, and a Prometheus-text HTTP endpoint. It is the substrate the
// overhead reports are built on.
//
// Design rules:
//
//   - Disabled observability costs nothing on hot paths: every consumer
//     guards with a nil check, and the simulator's warp-issue path keeps
//     its counters in plain per-SM shard fields that are published to the
//     registry only at kernel exit (sim.TestWarpIssueZeroAlloc pins 0
//     allocs per issued instruction).
//   - All mutation is either atomic (counters, gauges, histogram buckets)
//     or single-writer (sharded counter cells, which the simulator writes
//     once per launch after merging the per-SM results), so metrics merge
//     order-independently and parallel-vs-sequential simulations stay
//     bit-equal.
//   - Snapshot output is sorted by metric name, so serialized forms are
//     deterministic and diffable.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and nil-receiver safe (a nil counter silently discards).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric.
type Gauge struct {
	v atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(n uint64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into power-of-two buckets: bucket i counts
// values v with 2^(i-1) <= v < 2^i (bucket 0 counts v == 0). Fixed shape
// keeps observation allocation-free and the merged counts order-independent.
type Histogram struct {
	buckets [maxHistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

const maxHistBuckets = 32

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	i := 0
	for v > 0 && i < maxHistBuckets-1 {
		v >>= 1
		i++
	}
	return i
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the non-zero bucket counts as (upper-bound, count) pairs;
// the upper bound of bucket i is 2^i - 1 interpreted inclusively.
func (h *Histogram) Buckets() []HistBucket {
	if h == nil {
		return nil
	}
	var out []HistBucket
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			ub := uint64(0)
			if i > 0 {
				ub = uint64(1)<<uint(i) - 1
			}
			out = append(out, HistBucket{UpperBound: ub, Count: n})
		}
	}
	return out
}

// HistBucket is one histogram bucket in a snapshot.
type HistBucket struct {
	UpperBound uint64
	Count      uint64
}

// ShardedCounter is a counter split into per-shard cells (one per SM). It
// has a single writer: the simulator adds every SM's count once per
// launch, on the goroutine that runs after the per-SM results are merged.
// Value sums the cells, so the total does not depend on the order the
// shards were added in.
type ShardedCounter struct {
	cells []uint64
}

// AddShard adds n to one shard's cell, without synchronization: the
// caller is the counter's single writer.
func (s *ShardedCounter) AddShard(shard int, n uint64) {
	if s != nil {
		s.cells[shard] += n
	}
}

// Value sums all shards.
func (s *ShardedCounter) Value() uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for _, v := range s.cells {
		t += v
	}
	return t
}

// Registry holds named metrics. Registration takes a mutex; the returned
// handles are then mutated lock-free. A nil *Registry is a valid "disabled"
// registry: every lookup returns nil, and nil metric handles discard.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sharded  map[string]*ShardedCounter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		sharded:  make(map[string]*ShardedCounter),
	}
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Sharded returns (registering on first use) the named sharded counter with
// at least shards cells. An existing counter is widened if needed.
func (r *Registry) Sharded(name string, shards int) *ShardedCounter {
	if r == nil {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sharded[name]
	if s == nil {
		s = &ShardedCounter{cells: make([]uint64, shards)}
		r.sharded[name] = s
	} else if len(s.cells) < shards {
		cells := make([]uint64, shards)
		copy(cells, s.cells)
		s.cells = cells
	}
	return s
}

// Metric is one named value in a snapshot.
type Metric struct {
	Name string
	Kind MetricKind
	// Value is the counter/gauge value, the histogram count, or the
	// sharded-counter total.
	Value uint64
	// Sum and Buckets are set for histograms only.
	Sum     uint64
	Buckets []HistBucket
	// Shards holds per-shard values for sharded counters.
	Shards []uint64
}

// MetricKind tags a snapshot entry.
type MetricKind int

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
	KindSharded
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindSharded:
		return "counter" // a sharded counter is still a counter externally
	}
	return "unknown"
}

// Snapshot returns every metric, sorted by name. Histogram entries carry
// their buckets; sharded entries carry per-shard values.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.sharded))
	for n, c := range r.counters {
		out = append(out, Metric{Name: n, Kind: KindCounter, Value: c.Value()})
	}
	for n, g := range r.gauges {
		out = append(out, Metric{Name: n, Kind: KindGauge, Value: g.Value()})
	}
	for n, h := range r.hists {
		out = append(out, Metric{Name: n, Kind: KindHistogram,
			Value: h.Count(), Sum: h.Sum(), Buckets: h.Buckets()})
	}
	for n, s := range r.sharded {
		out = append(out, Metric{Name: n, Kind: KindSharded, Value: s.Value(),
			Shards: append([]uint64(nil), s.cells...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Flat returns the snapshot flattened to sorted name→value pairs: plain
// metrics appear under their name, histograms add .sum, and sharded
// counters add one .<shard-prefix><i> entry per shard. This is the shape
// -stats-json and the determinism tests consume.
func (r *Registry) Flat(shardPrefix string) map[string]uint64 {
	if r == nil {
		return nil
	}
	flat := make(map[string]uint64)
	for _, m := range r.Snapshot() {
		flat[m.Name] = m.Value
		switch m.Kind {
		case KindHistogram:
			flat[m.Name+".sum"] = m.Sum
		case KindSharded:
			for i, v := range m.Shards {
				flat[m.Name+"."+shardPrefix+itoa(i)] = v
			}
		}
	}
	return flat
}

// itoa is a tiny strconv.Itoa for non-negative ints (avoids pulling fmt
// into the hot-ish snapshot path).
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
