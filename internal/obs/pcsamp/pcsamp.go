// Package pcsamp is the simulator's always-on PC-sampling profiler: a
// deterministic cycle-cadence sampler over the warp-issue path, the
// low-overhead alternative to exact SASSI instrumentation (whose per-
// dispatch handlers cost 54-98% in the §9.1 reproduction).
//
// The cadence is modeled device cycles, not host time: each SM keeps a
// next-sample threshold, and the instruction whose issue+stall window
// crosses one or more multiples of the sampling period records a sample
// weighted by the number of boundaries crossed. Because per-SM cycle
// counts are deterministic (they never depend on goroutine interleaving),
// the profile is a pure function of the program and period — and period 1
// degenerates to exact per-instruction cycle attribution, which is what
// the accuracy experiment (experiments -run pcsamp) validates against.
//
// Samples land in per-SM single-writer ring buffers (64-byte cells, zero
// allocations on the hot path) that fold into per-SM aggregation maps
// when full, and merge order-independently into the global profile at
// launch end: sequential and concurrent engines produce bit-identical
// profiles. A sample carries (PC, launch-global warp id, active-lane
// count, stall reason, shadow call stack), so the merged profile exports
// as Brendan Gregg folded stacks (flamegraph.pl) or a pprof
// profile.proto that `go tool pprof` renders natively.
package pcsamp

import (
	"sync"
	"time"

	"sassi/internal/obs"
	"sassi/internal/sass"
)

// Reason classifies what the sampled instruction was doing when the SM's
// cycle counter crossed the sampling boundary.
type Reason uint8

// Stall reasons, in classification priority order: a scoreboard stall
// wins over the instruction's class, a barrier or memory instruction wins
// over divergence.
const (
	ReasonNone       Reason = iota // plain issue, no stall attributed
	ReasonScoreboard               // register RAW/WAW hazard stall cycles
	ReasonBarrier                  // BAR.SYNC issue (warp about to wait)
	ReasonDivergence               // branch that split the active mask
	ReasonMemory                   // memory-class instruction (latency-bound)
	NumReasons
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonScoreboard:
		return "scoreboard"
	case ReasonBarrier:
		return "barrier"
	case ReasonDivergence:
		return "divergence"
	case ReasonMemory:
		return "memory"
	}
	return "unknown"
}

// DefaultPeriod is the sampling cadence in modeled cycles when none is
// configured. At typical issue costs (~4-10 cycles per warp instruction)
// it samples roughly one instruction in twenty, which keeps overhead well
// under the 10% budget while resolving hotspots on the suite's kernels.
const DefaultPeriod = 100

// MaxStack is the number of call-stack frames a sample preserves. Deeper
// stacks keep the innermost frames and count toward TruncatedStacks.
const MaxStack = 12

// DefaultRingSize is the per-SM ring capacity in samples.
const DefaultRingSize = 1024

// Sample is one ring-buffer cell: exactly 64 bytes, so consecutive cells
// never share a cache line with a cell another writer owns (the same
// padding discipline as the metrics registry's sharded counters; each
// ring has a single writer, its SM goroutine).
type Sample struct {
	PC     int32           // instruction index in the kernel
	_      int32           // pads the cell to 64 bytes
	Weight uint32          // period boundaries this issue window crossed
	Active uint16          // active-lane count at issue
	Reason Reason          // stall classification
	Depth  uint8           // live frames in Stack
	Stack  [MaxStack]int32 // return addresses, outermost first
}

// smKey collapses a sample to its aggregation identity within one kernel:
// everything but the warp id and lane count, which aggregate as values.
type smKey struct {
	pc     int32
	reason Reason
	depth  uint8
	stack  [MaxStack]int32
}

// counts is the per-key aggregate.
type counts struct {
	samples uint64 // sum of Weight
	lanes   uint64 // sum of Weight*Active (for mean-occupancy attribution)
}

// SMBuf is one SM's private sample buffer: a fixed ring the engine's hot
// path appends to with zero allocations, plus a fold-target map consulted
// only when the ring fills and at launch end. Exactly one goroutine (the
// owning SM's) writes between LaunchBegin and LaunchEnd.
type SMBuf struct {
	ring      []Sample
	n         int
	truncated uint64
	agg       map[smKey]counts
}

func newSMBuf(ringSize int) *SMBuf {
	return &SMBuf{
		ring: make([]Sample, ringSize),
		agg:  make(map[smKey]counts, 64),
	}
}

// Record appends one sample. It allocates nothing: the ring cell is
// reused, and when the ring is full it folds into the aggregation map
// first (map writes to existing keys do not allocate, so steady-state
// sampling of a kernel's finite location set stays allocation-free).
func (b *SMBuf) Record(pc int32, active uint16, reason Reason, weight uint32, stack []int) {
	if b.n == len(b.ring) {
		b.fold()
	}
	s := &b.ring[b.n]
	b.n++
	s.PC, s.Weight, s.Active, s.Reason = pc, weight, active, reason
	d := len(stack)
	if d > MaxStack {
		b.truncated++
		stack = stack[d-MaxStack:] // keep the innermost frames
		d = MaxStack
	}
	s.Depth = uint8(d)
	for i := 0; i < d; i++ {
		s.Stack[i] = int32(stack[i])
	}
	// Cells are reused after a fold; clear stale frames so they cannot
	// leak into the aggregation key.
	for i := d; i < MaxStack; i++ {
		s.Stack[i] = 0
	}
}

// fold drains the ring into the aggregation map.
func (b *SMBuf) fold() {
	for i := 0; i < b.n; i++ {
		s := &b.ring[i]
		k := smKey{pc: s.PC, reason: s.Reason, depth: s.Depth, stack: s.Stack}
		c := b.agg[k]
		c.samples += uint64(s.Weight)
		c.lanes += uint64(s.Weight) * uint64(s.Active)
		b.agg[k] = c
	}
	b.n = 0
}

// reset clears the buffer for reuse by a later launch.
func (b *SMBuf) reset() {
	b.n = 0
	b.truncated = 0
	for k := range b.agg {
		delete(b.agg, k)
	}
}

// LaunchSamples is the per-launch attachment: one SMBuf per SM, bound to
// the launched kernel for symbolization. Each concurrent launch gets its
// own set, so a Sampler may serve overlapping launches (e.g. campaign
// workers) — the merge in LaunchEnd is commutative, keeping the final
// profile independent of completion order.
type LaunchSamples struct {
	kernel *sass.Kernel
	// SMs holds one single-writer buffer per SM; the engine stores
	// SMs[i] in SM i's shard.
	SMs []*SMBuf
}

// Sampler owns the merged profile across launches. The zero value is not
// usable; construct with New.
type Sampler struct {
	period   uint64
	ringSize int

	// Metrics, when non-nil, receives the pcsamp.* counters at each
	// launch end (never on the sampling hot path).
	Metrics *obs.Registry

	mu   sync.Mutex
	cond *sync.Cond
	prof *Profile
	free []*LaunchSamples
}

// New returns a sampler with the given cycle period (0 = DefaultPeriod).
func New(period uint64) *Sampler { return NewWithRing(period, DefaultRingSize) }

// NewWithRing is New with an explicit per-SM ring capacity, exposed so
// tests can force ring-full folds cheaply.
func NewWithRing(period uint64, ringSize int) *Sampler {
	if period == 0 {
		period = DefaultPeriod
	}
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	s := &Sampler{period: period, ringSize: ringSize, prof: newProfile(period)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Period returns the sampling cadence in modeled cycles.
func (s *Sampler) Period() uint64 { return s.period }

// LaunchBegin hands out per-SM buffers for one launch of k, reusing a
// pooled set when the SM count matches.
func (s *Sampler) LaunchBegin(k *sass.Kernel, numSMs int) *LaunchSamples {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ls *LaunchSamples
	for i, f := range s.free {
		if len(f.SMs) == numSMs {
			ls = f
			s.free = append(s.free[:i], s.free[i+1:]...)
			break
		}
	}
	if ls == nil {
		ls = &LaunchSamples{SMs: make([]*SMBuf, numSMs)}
		for i := range ls.SMs {
			ls.SMs[i] = newSMBuf(s.ringSize)
		}
	}
	ls.kernel = k
	s.prof.kernels[k.Name] = k
	return ls
}

// LaunchEnd folds every SM buffer of a completed launch into the global
// profile. The per-location merge is a commutative sum, so the profile is
// identical no matter how SM goroutines interleaved or in which order
// concurrent launches finish.
func (s *Sampler) LaunchEnd(ls *LaunchSamples) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var weighted, trunc uint64
	for _, b := range ls.SMs {
		b.fold()
		for k, c := range b.agg {
			loc := Loc{Kernel: ls.kernel.Name, PC: k.pc, Reason: k.reason, Depth: k.depth, Stack: k.stack}
			agg := s.prof.Locs[loc]
			agg.Samples += c.samples
			agg.Lanes += c.lanes
			s.prof.Locs[loc] = agg
			weighted += c.samples
		}
		trunc += b.truncated
		b.reset()
	}
	s.prof.Launches++
	s.prof.TruncatedStacks += trunc
	s.free = append(s.free, ls)
	if m := s.Metrics; m != nil {
		m.Counter(obs.MPCSampSamples).Add(weighted)
		m.Counter(obs.MPCSampLaunches).Inc()
		if trunc > 0 {
			m.Counter(obs.MPCSampTruncated).Add(trunc)
		}
	}
	s.cond.Broadcast()
}

// Profile returns a snapshot of the merged profile.
func (s *Sampler) Profile() *Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prof.Clone()
}

// WaitLaunches blocks until n more launches complete (or the timeout
// elapses), reporting whether the target was reached. It powers the
// ?launches=N continuous-profiling endpoint.
func (s *Sampler) WaitLaunches(n uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// The timer only wakes the cond loop; the loop itself re-checks the
	// deadline, so a spurious broadcast cannot end the wait early.
	t := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.prof.Launches + n
	for s.prof.Launches < target && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return s.prof.Launches >= target
}
