package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRounds is how many times a run sets up (look-ups, input generation,
// one warm-up iteration); setup_s is their median, so one slow round does not
// decide it.
const setupRounds = 3

// minIterations is the fewest timed iterations a run makes however short
// its time budget, so quartiles exist.
const minIterations = 3

// limits bound the timed part of a run: iterations > 0 fixes the count,
// otherwise iterations run until seconds have passed.
type limits struct {
	seconds    float64
	iterations int
}

// bench runs passes of one workload and keeps the account of operations
// attempted and failed.
type bench struct {
	first     map[string]string // each operation's signature the first time it ran
	attempted int
	failed    int
	failures  []string
}

// passOutcome is what one pass cost as a whole.
type passOutcome struct {
	wall    float64 // seconds
	allocMB float64
	peakMB  float64 // resident-set high-water mark of this pass, 0 if unknown
	cycles  uint64
	totals  *passTotals // nil when untraced
}

func (b *bench) fail(units int, format string, args ...any) {
	b.failed += units
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// run executes the pass's operations once, in order, on the calling
// goroutine: the benchmark is a closed loop with one client. The heap is
// collected and the resident-set high-water mark restarted first, so every
// pass starts from the same state; neither is timed.
func (b *bench) run(p pass, rec *recorder) passOutcome {
	if p.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.procs))
	}
	runtime.GC()
	peakRestarted := resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	root := rec.begin(p.name)
	var out passOutcome
	for _, o := range p.ops {
		units := max(o.units, 1)
		b.attempted += units
		if rec != nil {
			rec.op, rec.tag = o.name, o.tag
		}
		span := rec.begin("bench.op")
		res, err := o.run(rec)
		rec.end(span)
		if rec != nil {
			rec.op, rec.tag = "", ""
		}
		if err != nil {
			b.fail(units, "%s: %v", o.name, err)
			continue
		}
		out.cycles += res.cycles
		if first, seen := b.first[o.name]; !seen {
			b.first[o.name] = res.sig
		} else if first != res.sig {
			b.fail(units, "%s: not deterministic: first %q, now %q", o.name, first, res.sig)
		}
	}
	rec.end(root)
	out.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	out.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if peakRestarted {
		out.peakMB = peakRSSMB()
	}
	if rec != nil {
		out.totals = rec.totals(root, len(rec.spans))
	}
	return out
}

// measure is one run of one workload: set-up, timed iterations and, when
// traced, the traced iterations and decomposition passes. started is when
// the run began (process start for the first workload of a process). In a
// traced run untraced and traced iterations alternate, so the two walls
// whose ratio is bench.trace_overhead see the same machine.
func measure(name string, seed uint64, sz sizes, lim limits, rec *recorder, started time.Time) (*result, error) {
	b := &bench{first: map[string]string{}}
	var w *workload
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			started = time.Now()
		}
		var err error
		if w, err = newWorkload(name, seed, sz); err != nil {
			return nil, err
		}
		b.run(pass{name: "warmup", ops: w.ops}, nil)
		setups = append(setups, time.Since(started).Seconds())
	}

	var walls, allocs, peaks, cycles, tracedWalls []float64
	var traced []*passTotals
	iteration := pass{name: "bench.iteration", ops: w.ops}
	begin := time.Now()
	for n := 0; ; n++ {
		if lim.iterations > 0 {
			if n >= lim.iterations {
				break
			}
		} else if n >= minIterations && time.Since(begin).Seconds() >= lim.seconds {
			break
		}
		out := b.run(iteration, nil)
		walls = append(walls, out.wall)
		allocs = append(allocs, out.allocMB)
		if out.peakMB > 0 {
			peaks = append(peaks, out.peakMB)
		}
		cycles = append(cycles, float64(out.cycles)/1e6)
		if rec != nil {
			out := b.run(iteration, rec)
			tracedWalls = append(tracedWalls, out.wall)
			traced = append(traced, out.totals)
		}
	}

	res := &result{
		Workload:   name,
		Seed:       seed,
		Iterations: len(walls),
		Operations: len(w.ops),
		EndToEnd: map[string]dist{
			mWall:   newDist("s", walls),
			mAlloc:  newDist("MB", allocs),
			mCycles: newDist("Mcycles", cycles),
			mSetup:  newDist("s", setups),
		},
	}
	if rec != nil {
		decomp := map[string][]*passTotals{}
		for _, p := range w.decomp {
			for i := 0; i < p.reps; i++ {
				decomp[p.name] = append(decomp[p.name], b.run(p, rec).totals)
			}
		}
		res.TracedIterations = len(traced)
		res.PerLayer = layerMetrics(traced, decomp)
		res.PerLayer["bench.trace_overhead"] = ratio(median(tracedWalls), median(walls))
		res.PerLayer["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		res.PerLayer["bench.iterations"] = float64(len(walls))
		if one := decomp[passOneProc]; len(one) > 0 {
			res.PerLayer["sim.gomaxprocs_speedup"] = ratio(one[0].Wall, median(tracedWalls))
		}
		res.Spans = spanSummaries(rec)
	}
	res.Attempted, res.Failed, res.Failures = b.attempted, b.failed, b.failures
	res.EndToEnd[mFail] = newDist("failed/attempted", []float64{ratio(float64(b.failed), float64(b.attempted))})
	if len(peaks) == 0 {
		// The kernel would not restart the high-water mark per iteration:
		// report the mark of the whole process.
		peaks = []float64{peakRSSMB()}
	}
	// The mean, not the median: an iteration's peak depends on where the
	// garbage collector's cycles fall and comes out in two or three modes, so
	// a median flips between them from run to run while the mean of ten
	// iterations does not; and there are no interference outliers to reject.
	rss := newDist("MB", peaks)
	rss.Value = mean(peaks)
	res.EndToEnd[mPeakRSS] = rss
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0 where
// /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// resetPeakRSS asks the kernel to restart VmHWM from the current resident
// set and reports whether it did. peak_rss_mb is then the mean over the
// iterations of each one's own peak, which one unlucky garbage-collection
// cycle cannot decide the way it decides a process-wide maximum.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}
