package difftest

import (
	"fmt"
	"sort"
	"sync"

	"sassi/internal/sim"
)

// ThreadState is one thread's architectural state at CTA retirement.
type ThreadState struct {
	FlatTid uint32
	Regs    []uint32
	Preds   uint8 // P0..P6 (bit 7, PT, masked off)
	CC      uint8
	Local   []byte
}

// CTAState is one CTA's final state, captured via sim.Device.CTARetire.
type CTAState struct {
	Shared  []byte
	Threads []ThreadState
}

// RunState is everything one oracle launch observed.
type RunState struct {
	Variant string // e.g. "base/seq", "opcount/par"
	CTAs    map[int]*CTAState
	Out     []uint32 // kernel-owned output buffer
	Acc     []uint32 // kernel-owned atomic accumulator
	Stats   *sim.KernelStats
	Metrics map[string]uint64 // obs registry snapshot (sim+mem counters)
}

// collector snapshots CTAs as they retire. CTARetire fires concurrently
// from SM goroutines, so it locks; snapshots key by CTA.Index, which is
// engine-independent.
type collector struct {
	mu   sync.Mutex
	ctas map[int]*CTAState
}

func newCollector() *collector { return &collector{ctas: make(map[int]*CTAState)} }

func (c *collector) hook(cta *sim.CTA) {
	st := Snapshot(cta)
	c.mu.Lock()
	c.ctas[cta.Index] = st
	c.mu.Unlock()
}

// Snapshot copies a retiring CTA's architectural state — every thread's
// registers, predicates, CC and whole local memory, and the CTA's shared
// memory — with threads in FlatTid order. It is the collector's body, for
// callers that attach their own sim.Device.CTARetire.
func Snapshot(cta *sim.CTA) *CTAState {
	st := &CTAState{}
	if cta.Shared != nil && cta.Shared.Size() > 0 {
		st.Shared = make([]byte, cta.Shared.Size())
		_ = cta.Shared.Read(0, st.Shared)
	}
	for _, w := range cta.Warps {
		for l := 0; l < sim.WarpSize; l++ {
			t := w.Thread(l)
			if t == nil {
				break
			}
			ts := ThreadState{
				FlatTid: t.FlatTid,
				Regs:    make([]uint32, t.NumRegs()),
				Preds:   t.PredBits() & 0x7f,
				CC:      t.ReadCC(),
			}
			for r := range ts.Regs {
				ts.Regs[r] = t.ReadReg(uint8(r))
			}
			if n := t.LocalSize(); n > 0 {
				ts.Local = make([]byte, n)
				_ = t.ReadLocal(0, ts.Local)
			}
			st.Threads = append(st.Threads, ts)
		}
	}
	sort.Slice(st.Threads, func(i, j int) bool {
		return st.Threads[i].FlatTid < st.Threads[j].FlatTid
	})
	return st
}

// Failure is one oracle divergence, with a human-readable first diff.
type Failure struct {
	Axis string // "engine" or "transparency"
	Want string // reference variant
	Got  string // diverging variant
	Diff string
}

func (f Failure) String() string {
	return fmt.Sprintf("[%s] %s vs %s: %s", f.Axis, f.Want, f.Got, f.Diff)
}

// compareFull asserts complete bit-equality between two runs of the SAME
// program on different engines: every register, predicate, condition code,
// all memory spaces, kernel statistics, and metric snapshots.
func compareFull(want, got *RunState) []Failure {
	var fails []Failure
	add := func(format string, args ...any) {
		fails = append(fails, Failure{Axis: "engine", Want: want.Variant,
			Got: got.Variant, Diff: fmt.Sprintf(format, args...)})
	}
	compareBuffers(want, got, add)
	compareCTAs(want, got, add, func(w, g *ThreadState, addT func(string, ...any)) {
		if len(w.Regs) != len(g.Regs) {
			addT("register file size %d vs %d", len(w.Regs), len(g.Regs))
			return
		}
		for r := range w.Regs {
			if w.Regs[r] != g.Regs[r] {
				addT("R%d = %#x vs %#x", r, w.Regs[r], g.Regs[r])
				return
			}
		}
		if eq, diff := localEqual(w.Local, g.Local, len(w.Local)); !eq {
			addT("%s", diff)
		}
	})
	if want.Stats != nil && got.Stats != nil {
		if d := statsDiff(want.Stats, got.Stats); d != "" {
			add("stats: %s", d)
		}
	}
	if d := metricsDiff(want.Metrics, got.Metrics); d != "" {
		add("metrics: %s", d)
	}
	return fails
}

// compareTransparent asserts the instrumentation-transparency contract
// between an uninstrumented reference and an instrumented run. The
// injection ABI may reuse dead GPRs below handlerMaxRegs, moves the stack
// pointer (R1) by the injection frame, and leaves stale bytes where
// relocated frames lived near the stack top — everything else must match:
// kernel-owned global buffers, shared memory, the generator's local
// window, all predicates + CC, and every GPR >= handlerMaxRegs.
func compareTransparent(want, got *RunState, handlerMaxRegs int) []Failure {
	var fails []Failure
	add := func(format string, args ...any) {
		fails = append(fails, Failure{Axis: "transparency", Want: want.Variant,
			Got: got.Variant, Diff: fmt.Sprintf(format, args...)})
	}
	compareBuffers(want, got, add)
	compareCTAs(want, got, add, func(w, g *ThreadState, addT func(string, ...any)) {
		for r := handlerMaxRegs; r < len(w.Regs) && r < len(g.Regs); r++ {
			if w.Regs[r] != g.Regs[r] {
				addT("live R%d = %#x vs %#x (above handler scratch window)",
					r, w.Regs[r], g.Regs[r])
				return
			}
		}
		if eq, diff := localEqual(w.Local, g.Local, LocalBytes); !eq {
			addT("%s", diff)
		}
	})
	return fails
}

// compareArch asserts bit-equality of all architectural state between the
// unscheduled reference and a scheduler-reordered build of the SAME
// source: buffers, shared/local memory, every register, predicates, CC,
// and the order-insensitive kernel statistics. Timing state (Cycles,
// SMCycles, ScoreboardStalls) is exactly what a schedule is allowed — and
// expected — to change, so it is excluded, as are the metric snapshots
// that embed it.
func compareArch(want, got *RunState) []Failure {
	var fails []Failure
	add := func(format string, args ...any) {
		fails = append(fails, Failure{Axis: "schedule", Want: want.Variant,
			Got: got.Variant, Diff: fmt.Sprintf(format, args...)})
	}
	compareBuffers(want, got, add)
	compareCTAs(want, got, add, func(w, g *ThreadState, addT func(string, ...any)) {
		if len(w.Regs) != len(g.Regs) {
			addT("register file size %d vs %d", len(w.Regs), len(g.Regs))
			return
		}
		for r := range w.Regs {
			if w.Regs[r] != g.Regs[r] {
				addT("R%d = %#x vs %#x", r, w.Regs[r], g.Regs[r])
				return
			}
		}
		if eq, diff := localEqual(w.Local, g.Local, len(w.Local)); !eq {
			addT("%s", diff)
		}
	})
	if want.Stats != nil && got.Stats != nil {
		if d := archStatsDiff(want.Stats, got.Stats); d != "" {
			add("stats: %s", d)
		}
	}
	return fails
}

// archStatsDiff compares the schedule-invariant statistics.
func archStatsDiff(w, g *sim.KernelStats) string {
	type pair struct {
		name string
		w, g uint64
	}
	pairs := []pair{
		{"WarpInstrs", w.WarpInstrs, g.WarpInstrs},
		{"ThreadInstrs", w.ThreadInstrs, g.ThreadInstrs},
		{"InjectedWarpInstrs", w.InjectedWarpInstrs, g.InjectedWarpInstrs},
		{"InjectedThreadInstrs", w.InjectedThreadInstrs, g.InjectedThreadInstrs},
		{"HandlerCalls", w.HandlerCalls, g.HandlerCalls},
		{"GlobalTransactions", w.GlobalTransactions, g.GlobalTransactions},
	}
	for _, p := range pairs {
		if p.w != p.g {
			return fmt.Sprintf("%s %d vs %d", p.name, p.w, p.g)
		}
	}
	return ""
}

func compareBuffers(want, got *RunState, add func(string, ...any)) {
	for i := range want.Out {
		if i < len(got.Out) && want.Out[i] != got.Out[i] {
			add("out[%d] = %#x vs %#x", i, want.Out[i], got.Out[i])
			break
		}
	}
	for i := range want.Acc {
		if i < len(got.Acc) && want.Acc[i] != got.Acc[i] {
			add("acc[%d] = %#x vs %#x", i, want.Acc[i], got.Acc[i])
			break
		}
	}
}

func compareCTAs(want, got *RunState, add func(string, ...any),
	threads func(w, g *ThreadState, addT func(string, ...any))) {
	if len(want.CTAs) != len(got.CTAs) {
		add("%d CTAs retired vs %d", len(want.CTAs), len(got.CTAs))
		return
	}
	idxs := make([]int, 0, len(want.CTAs))
	for i := range want.CTAs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		w, g := want.CTAs[i], got.CTAs[i]
		if g == nil {
			add("cta %d missing", i)
			return
		}
		for b := range w.Shared {
			if b < len(g.Shared) && w.Shared[b] != g.Shared[b] {
				add("cta %d shared[%#x] = %#x vs %#x", i, b, w.Shared[b], g.Shared[b])
				return
			}
		}
		if len(w.Threads) != len(g.Threads) {
			add("cta %d thread count %d vs %d", i, len(w.Threads), len(g.Threads))
			return
		}
		for ti := range w.Threads {
			wt, gt := &w.Threads[ti], &g.Threads[ti]
			bad := false
			addT := func(format string, args ...any) {
				bad = true
				add("cta %d tid %d: %s", i, wt.FlatTid, fmt.Sprintf(format, args...))
			}
			if wt.Preds != gt.Preds {
				addT("predicates %#07b vs %#07b", wt.Preds, gt.Preds)
			} else if wt.CC != gt.CC {
				addT("CC %#x vs %#x", wt.CC, gt.CC)
			} else {
				threads(wt, gt, addT)
			}
			if bad {
				return
			}
		}
	}
}

func localEqual(w, g []byte, n int) (bool, string) {
	for b := 0; b < n && b < len(w) && b < len(g); b++ {
		if w[b] != g[b] {
			return false, fmt.Sprintf("local[%#x] = %#x vs %#x", b, w[b], g[b])
		}
	}
	return true, ""
}

func statsDiff(w, g *sim.KernelStats) string {
	type pair struct {
		name string
		w, g uint64
	}
	pairs := []pair{
		{"WarpInstrs", w.WarpInstrs, g.WarpInstrs},
		{"ThreadInstrs", w.ThreadInstrs, g.ThreadInstrs},
		{"InjectedWarpInstrs", w.InjectedWarpInstrs, g.InjectedWarpInstrs},
		{"InjectedThreadInstrs", w.InjectedThreadInstrs, g.InjectedThreadInstrs},
		{"HandlerCalls", w.HandlerCalls, g.HandlerCalls},
		{"MaxWarpInstrs", w.MaxWarpInstrs, g.MaxWarpInstrs},
		{"GlobalTransactions", w.GlobalTransactions, g.GlobalTransactions},
		{"ScoreboardStalls", w.ScoreboardStalls, g.ScoreboardStalls},
		{"Cycles", w.Cycles, g.Cycles},
	}
	for _, p := range pairs {
		if p.w != p.g {
			return fmt.Sprintf("%s %d vs %d", p.name, p.w, p.g)
		}
	}
	if len(w.SMCycles) != len(g.SMCycles) {
		return fmt.Sprintf("SMCycles len %d vs %d", len(w.SMCycles), len(g.SMCycles))
	}
	for i := range w.SMCycles {
		if w.SMCycles[i] != g.SMCycles[i] {
			return fmt.Sprintf("SMCycles[%d] %d vs %d", i, w.SMCycles[i], g.SMCycles[i])
		}
	}
	return ""
}

func metricsDiff(w, g map[string]uint64) string {
	names := make([]string, 0, len(w))
	for k := range w {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if gv, ok := g[k]; !ok || gv != w[k] {
			return fmt.Sprintf("%s = %d vs %d", k, w[k], g[k])
		}
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			return fmt.Sprintf("%s only in %s", k, "second run")
		}
	}
	return ""
}
