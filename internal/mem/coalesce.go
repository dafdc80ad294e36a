package mem

import (
	"math/bits"
	"slices"
)

// Coalescer models the warp-level memory access unit: for each warp memory
// instruction it merges the per-lane addresses into unique cache-line
// transactions. The number of unique lines touched per warp instruction is
// the paper's memory address divergence metric (Case Study II).
type Coalescer struct {
	// LineBytes is the coalescing granularity. The paper's study uses 32B
	// sectors; the ablation benches also run 128B.
	LineBytes uint64
}

// NewCoalescer returns a coalescer with the given line size (power of two).
func NewCoalescer(lineBytes uint64) *Coalescer {
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		panic("mem: coalescer line size must be a power of two")
	}
	return &Coalescer{LineBytes: lineBytes}
}

// Result describes the transactions an access generated.
type Result struct {
	// Lines lists the unique line base addresses, in first-touch order.
	Lines []uint64
	// NumActive is the number of participating lanes.
	NumActive int
}

// UniqueLines returns the number of memory transactions (unique lines).
func (r Result) UniqueLines() int { return len(r.Lines) }

// CoalesceWarp merges the lane accesses of op (its Exec, Addrs, Width and
// Shape) into unique line transactions, in first-touch order: lanes in
// ascending order, each access's lines from its first byte's to its last
// byte's, so one wider than the rest of its line spans two, as on
// hardware. It resets and reuses res.Lines, so a per-SM Result makes the
// steady state allocation-free.
//
// A uniform access's lines are those of its one address. Otherwise, while
// the lines come in ascending order the emitted list is sorted and a line
// is a repeat exactly when it equals the last one emitted; after the first
// descent, every line is looked up in the whole list — a warp touches a
// handful of unique lines, where scanning beats a map.
func (c *Coalescer) CoalesceWarp(op *WarpOp, res *Result) {
	res.Lines = res.Lines[:0]
	res.NumActive = bits.OnesCount32(op.Exec)
	if op.Exec == 0 {
		return
	}
	w := uint64(op.Width)
	if w == 0 {
		w = 4
	}
	mask := c.LineBytes - 1
	lanes := op.Exec
	if op.Shape == ShapeUniform {
		lanes &= -lanes
	}
	sorted := true // the lines emitted so far ascend
	for m := lanes; m != 0; m &= m - 1 {
		a := op.Addrs[lane(m)]
		last := (a + w - 1) &^ mask
		for line := a &^ mask; ; line += c.LineBytes {
			seen := false
			if n := len(res.Lines); n > 0 {
				prev := res.Lines[n-1]
				sorted = sorted && line >= prev
				seen = line == prev || !sorted && slices.Contains(res.Lines, line)
			}
			if !seen {
				res.Lines = append(res.Lines, line)
			}
			if line == last {
				break
			}
		}
	}
}

// DivergenceMatrix accumulates the paper's Figure 8 statistic: a 32x32
// lower-triangular matrix of counters where rows are the number of active
// threads in the warp and columns the number of unique lines requested.
type DivergenceMatrix struct {
	Counts [32][32]uint64
}

// Record tallies one coalesced access.
func (m *DivergenceMatrix) Record(r Result) {
	if r.NumActive == 0 {
		return
	}
	u := r.UniqueLines()
	if u == 0 {
		return
	}
	if u > 32 {
		u = 32 // multi-line wide accesses can exceed 32; clamp for the plot
	}
	m.Counts[r.NumActive-1][u-1]++
}

// Merge adds o into m.
func (m *DivergenceMatrix) Merge(o *DivergenceMatrix) {
	for i := range m.Counts {
		for j := range m.Counts[i] {
			m.Counts[i][j] += o.Counts[i][j]
		}
	}
}

// TotalAccesses returns the number of recorded warp accesses.
func (m *DivergenceMatrix) TotalAccesses() uint64 {
	var n uint64
	for i := range m.Counts {
		for j := range m.Counts[i] {
			n += m.Counts[i][j]
		}
	}
	return n
}

// UniqueLinePMF computes the paper's Figure 7 distribution: the fraction of
// *thread-level* accesses issued from warp instructions that requested N
// unique lines, for N in 1..32 (index 0 holds N=1).
func (m *DivergenceMatrix) UniqueLinePMF() [32]float64 {
	var pmf [32]float64
	var total float64
	for act := 0; act < 32; act++ {
		for uniq := 0; uniq < 32; uniq++ {
			threads := float64(act+1) * float64(m.Counts[act][uniq])
			pmf[uniq] += threads
			total += threads
		}
	}
	if total > 0 {
		for i := range pmf {
			pmf[i] /= total
		}
	}
	return pmf
}
