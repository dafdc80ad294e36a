package handlers

import (
	"sort"
	"sync"

	"sassi/internal/device"
	"sassi/internal/mem"
	"sassi/internal/sass"
	"sassi/internal/sassi"
)

// RacePair names two static instruction sites (original-kernel
// instruction indices, A <= B) observed touching the same shared-memory
// byte in the same barrier interval from different threads.
type RacePair struct {
	A, B int
}

// RaceChecker is the dynamic half of the concurrency checker
// (internal/analysis/concurrency): a SASSI handler instrumented before
// every shared-memory access and every BAR.SYNC. BAR sites advance a
// per-thread phase counter; access sites check a per-CTA byte-granular
// shadow map for a same-phase access from a different thread where at
// least one side writes and not both are atomic — the dynamic definition
// of a shared-memory race. Observed races are recorded as normalized
// static site pairs so tests can cross-validate them against the static
// pass's reports.
//
// Like the static pass, the checker deliberately does not exempt
// same-warp accesses: the warp-synchronous programming idiom is not
// honored by either side, keeping the two verdicts comparable.
type RaceChecker struct {
	mu    sync.Mutex
	ctas  map[[3]uint32]*ctaShadow
	races map[RacePair]struct{}
}

type ctaShadow struct {
	phase map[uint32]uint64 // flat thread id -> barrier phase
	cells map[uint64]*shadowCell
}

type access struct {
	tid    uint32
	phase  uint64
	site   int
	atomic bool
}

type shadowCell struct {
	write    access
	hasWrite bool
	reads    []access // reads since the last write
}

// NewRaceChecker returns an empty checker.
func NewRaceChecker() *RaceChecker {
	return &RaceChecker{
		ctas:  make(map[[3]uint32]*ctaShadow),
		races: make(map[RacePair]struct{}),
	}
}

// Options returns the instrumentation specification: before-handlers at
// every memory operation and every BAR.SYNC. BAR sites carry no memory
// params (args.MP == nil), which is how the handler tells the two kinds
// of site apart.
func (r *RaceChecker) Options() sassi.Options {
	return sassi.Options{
		Where:         sassi.BeforeAll,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "sassi_racecheck_handler",
		Select: func(_ *sass.Kernel, _ int, in *sass.Instruction) bool {
			return in.Op.IsMem() || in.Op == sass.OpBAR
		},
	}
}

// Handler returns the runtime handler. Lanes are checked in ascending
// order; the mutex serializes across warps and SMs.
func (r *RaceChecker) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_racecheck_handler",
		What: sassi.PassMemoryInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			bx, by, bz := w.Lane(w.First()).BlockIdx()
			key := [3]uint32{bx, by, bz}

			r.mu.Lock()
			defer r.mu.Unlock()
			cta := r.ctas[key]
			if cta == nil {
				cta = &ctaShadow{phase: make(map[uint32]uint64), cells: make(map[uint64]*shadowCell)}
				r.ctas[key] = cta
			}

			// The access's static properties are the same on every lane.
			var acc access
			var write bool
			var width uint64
			if args.MP != nil {
				acc = access{site: sass.IndexOfOffset(args.BP.InsOffset()), atomic: args.MP.IsAtomic()}
				write, width = args.MP.IsStore(), uint64(args.MP.Width())
			}
			for l := w.First(); l >= 0; l = w.Next(l) {
				if !args.BP.InstrWillExecute(l) {
					continue
				}
				tid := w.Lane(l).FlatThreadIdx()
				if args.MP == nil {
					// BAR.SYNC site: this thread enters the next interval.
					cta.phase[tid]++
					continue
				}
				addr := args.MP.Address(l)
				if !mem.IsShared(addr) {
					continue
				}
				acc.tid, acc.phase = tid, cta.phase[tid]
				for b := uint64(0); b < width; b++ {
					r.touch(cta, addr+b, acc, write)
				}
			}
		},
	}
}

// touch records one byte access and reports conflicts against the shadow.
func (r *RaceChecker) touch(cta *ctaShadow, addr uint64, acc access, write bool) {
	cell := cta.cells[addr]
	if cell == nil {
		cell = &shadowCell{}
		cta.cells[addr] = cell
	}
	conflict := func(prev access) {
		if prev.tid == acc.tid || prev.phase != acc.phase {
			return
		}
		if prev.atomic && acc.atomic {
			return
		}
		r.races[racePair(prev.site, acc.site)] = struct{}{}
	}
	if write {
		if cell.hasWrite {
			conflict(cell.write)
		}
		for _, rd := range cell.reads {
			conflict(rd)
		}
		cell.write, cell.hasWrite = acc, true
		cell.reads = cell.reads[:0]
	} else {
		if cell.hasWrite {
			conflict(cell.write)
		}
		cell.reads = append(cell.reads, acc)
	}
}

func racePair(a, b int) RacePair {
	if a > b {
		a, b = b, a
	}
	return RacePair{A: a, B: b}
}

// Races returns the observed races as sorted, de-duplicated site pairs.
func (r *RaceChecker) Races() []RacePair {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RacePair, 0, len(r.races))
	for p := range r.races {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Reset clears all shadow state and recorded races.
func (r *RaceChecker) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctas = make(map[[3]uint32]*ctaShadow)
	r.races = make(map[RacePair]struct{})
}
