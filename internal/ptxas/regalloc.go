// Package ptxas is the backend compiler: it lowers PTX (internal/ptx) to
// SASS machine code (internal/sass), allocating physical registers with a
// liveness-driven linear scan. SASSI instrumentation runs after this
// compiler has finished, so injection never perturbs allocation or code
// ordering — the property the paper gets by making SASSI the final ptxas
// pass.
package ptxas

import (
	"fmt"
	"math/bits"
	"sort"

	"sassi/internal/analysis"
	"sassi/internal/ptx"
	"sassi/internal/sass"
)

// interval is a virtual register's live range over the linear instruction
// order, with loop back-edges already folded in by the dataflow pass.
type interval struct {
	v          int32
	t          ptx.Type
	start, end int
}

// liveAnalysis computes per-vreg live intervals for a PTX function. A
// value live at entry is read on some path before any unguarded definition
// (a guarded one merges the old value), so that is an error: the read would
// see whatever its register last held.
func liveAnalysis(f *ptx.Func) ([]interval, error) {
	n := len(f.Instrs)
	// Label positions.
	labelPos := make(map[string]int, 8)
	for i := range f.Instrs {
		if f.Instrs[i].Op == ptx.OpLabel {
			labelPos[f.Instrs[i].Label] = i
		}
	}
	// Block leaders.
	lead := make([]bool, n+1)
	if n > 0 {
		lead[0] = true
	}
	for i := range f.Instrs {
		in := &f.Instrs[i]
		switch in.Op {
		case ptx.OpLabel:
			lead[i] = true
		case ptx.OpBra, ptx.OpSSY:
			if p, ok := labelPos[in.Label]; ok {
				lead[p] = true
			}
			lead[i+1] = true
		case ptx.OpExit, ptx.OpSync:
			lead[i+1] = true
		}
	}
	// Successor edges per instruction-ending-a-block: ss[:k].
	succs := func(i int) (ss [2]int, k int) {
		in := &f.Instrs[i]
		switch in.Op {
		case ptx.OpExit:
			return ss, 0
		case ptx.OpBra:
			if in.Guard.Valid() {
				return [2]int{labelPos[in.Label], i + 1}, 2
			}
			return [2]int{labelPos[in.Label]}, 1
		case ptx.OpSSY:
			// Deferred paths resume at the reconvergence point.
			return [2]int{labelPos[in.Label], i + 1}, 2
		default:
			return [2]int{i + 1}, 1
		}
	}
	// uses returns the values the instruction reads: us[:k].
	uses := func(in *ptx.Instr) (us [4]ptx.Value, k int) {
		for _, v := range [...]ptx.Value{in.A, in.B, in.C, in.Guard} {
			if v.Valid() {
				us[k] = v
				k++
			}
		}
		return us, k
	}
	vid := func(v ptx.Value) int { return int(v.ID()) }
	nv := 0 // one past the highest vreg ID
	for i := range f.Instrs {
		in := &f.Instrs[i]
		for _, v := range [...]ptx.Value{in.Dst, in.A, in.B, in.C, in.Guard} {
			if vid(v) >= nv {
				nv = vid(v) + 1
			}
		}
	}

	// Backward dataflow over instructions: one bitset of vreg IDs per
	// position, all cut from one backing array.
	out := analysis.NewBits(nv)
	words := len(out)
	backing := make(analysis.Bits, (n+1)*words)
	liveIn := make([]analysis.Bits, n+1)
	for i := range liveIn {
		liveIn[i] = backing[i*words : (i+1)*words]
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			in := &f.Instrs[i]
			clear(out)
			ss, k := succs(i)
			for _, s := range ss[:k] {
				if s <= n {
					out.Union(liveIn[s])
				}
			}
			// transfer: live = (out - def) + use. A guarded def merges.
			if in.Dst.Valid() && !in.Guard.Valid() {
				out.Clear(vid(in.Dst))
			}
			us, k := uses(in)
			for _, u := range us[:k] {
				out.Set(vid(u))
			}
			if in.Dst.Valid() && in.Guard.Valid() {
				out.Set(vid(in.Dst))
			}
			if !out.Equal(liveIn[i]) {
				liveIn[i].CopyFrom(out)
				changed = true
			}
		}
	}

	for w, word := range liveIn[0] {
		if word != 0 {
			return nil, fmt.Errorf("%%v%d read before it is defined", w*64+bits.TrailingZeros64(word))
		}
	}

	// Intervals: first and last position each vreg is defined, used or live.
	starts := make([]int, nv)
	ends := make([]int, nv)
	types := make([]ptx.Type, nv)
	for v := range starts {
		starts[v] = -1
	}
	note := func(id, pos int) {
		if starts[id] < 0 {
			starts[id] = pos
		}
		if pos > ends[id] {
			ends[id] = pos
		}
	}
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.Dst.Valid() {
			note(vid(in.Dst), i)
			types[vid(in.Dst)] = f.TypeOf(in.Dst)
		}
		us, k := uses(in)
		for _, u := range us[:k] {
			note(vid(u), i)
			types[vid(u)] = f.TypeOf(u)
		}
		for w, word := range liveIn[i] {
			for ; word != 0; word &= word - 1 {
				note(w*64+bits.TrailingZeros64(word), i)
			}
		}
	}
	ivs := make([]interval, 0, nv)
	for v, s := range starts {
		if s >= 0 {
			ivs = append(ivs, interval{v: int32(v), t: types[v], start: s, end: ends[v]})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].v < ivs[j].v
	})
	return ivs, nil
}

// allocation maps virtual registers to physical SASS registers.
type allocation struct {
	reg     map[int32]uint8 // GPR number (pair base for u64)
	pred    map[int32]uint8 // predicate number
	numRegs int
	numPred int
}

// allocate runs linear scan over the intervals.
//
// R1 is reserved as the ABI stack pointer. 64-bit values take an aligned
// even/odd register pair.
func allocate(ivs []interval) (*allocation, error) {
	a := &allocation{reg: map[int32]uint8{}, pred: map[int32]uint8{}}
	inUse := make([]int32, sass.NumGPR) // -1 free, else vreg id
	for i := range inUse {
		inUse[i] = -1
	}
	inUse[sass.SP] = -2 // reserved
	predUse := make([]int32, sass.NumPred)
	for i := range predUse {
		predUse[i] = -1
	}
	type active struct {
		end  int
		v    int32
		pred bool
	}
	var act []active

	expire := func(pos int) {
		keep := act[:0]
		for _, e := range act {
			if e.end < pos {
				if e.pred {
					predUse[a.pred[e.v]] = -1
				} else {
					r := a.reg[e.v]
					inUse[r] = -1
					if int(r)+1 < len(inUse) && inUse[r+1] == e.v {
						inUse[r+1] = -1
					}
				}
				continue
			}
			keep = append(keep, e)
		}
		act = keep
	}

	for _, iv := range ivs {
		expire(iv.start)
		if iv.t == ptx.TPred {
			got := -1
			for p := 0; p < sass.NumPred; p++ {
				if predUse[p] == -1 {
					got = p
					break
				}
			}
			if got == -1 {
				return nil, fmt.Errorf("ptxas: out of predicate registers (7) — restructure the kernel")
			}
			predUse[got] = iv.v
			a.pred[iv.v] = uint8(got)
			if got+1 > a.numPred {
				a.numPred = got + 1
			}
			act = append(act, active{end: iv.end, v: iv.v, pred: true})
			continue
		}
		need := 1
		if iv.t == ptx.TU64 {
			need = 2
		}
		got := -1
		for r := 0; r+need <= len(inUse); r++ {
			if need == 2 && r%2 != 0 {
				continue
			}
			ok := true
			for j := 0; j < need; j++ {
				if inUse[r+j] != -1 {
					ok = false
					break
				}
			}
			if ok {
				got = r
				break
			}
		}
		if got == -1 {
			return nil, fmt.Errorf("ptxas: out of registers (%d): kernel needs spilling, which this backend does not implement", sass.NumGPR)
		}
		for j := 0; j < need; j++ {
			inUse[got+j] = iv.v
		}
		a.reg[iv.v] = uint8(got)
		if got+need > a.numRegs {
			a.numRegs = got + need
		}
		act = append(act, active{end: iv.end, v: iv.v})
	}
	if a.numRegs < 2 {
		a.numRegs = 2 // SP exists even in trivial kernels
	}
	return a, nil
}
