package ptxas

import (
	"sassi/internal/ptx"
	"sassi/internal/sass"
)

// PTX-level cleanup passes. The Builder API emits straightforward code
// with many value copies (type reinterpretation, Var initialization);
// these passes remove them before register allocation, exactly where a
// production backend would, so that SASSI later instruments optimized code
// (the paper: injection happens after all compile-time optimization).

// valueStats counts definitions and uses of every virtual register, in
// slices indexed by value ID. One is built per function and recounted by
// each pass that needs fresh numbers: the passes only ever remove values.
type valueStats struct {
	defs, uses []int32
}

func newValueStats(f *ptx.Func) *valueStats {
	nv := int32(0) // one past the highest value ID
	for i := range f.Instrs {
		in := &f.Instrs[i]
		for _, v := range [...]ptx.Value{in.Dst, in.A, in.B, in.C, in.Guard} {
			nv = max(nv, v.ID()+1)
		}
	}
	counts := make([]int32, 2*nv)
	return &valueStats{defs: counts[:nv], uses: counts[nv:]}
}

// count recounts f's instructions.
func (s *valueStats) count(f *ptx.Func) {
	clear(s.defs)
	clear(s.uses)
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.Dst.Valid() {
			s.defs[in.Dst.ID()]++
		}
		for _, v := range [...]ptx.Value{in.A, in.B, in.C, in.Guard} {
			if v.Valid() {
				s.uses[v.ID()]++
			}
		}
	}
}

// copyPropagate replaces uses of single-definition copies with their
// sources. Only unguarded `mov d, a` instructions where both d and a are
// defined exactly once qualify: single-def values cannot be invalidated by
// later redefinition, and d's definition dominates its uses in a verified
// program, so global replacement is sound. A copy whose source resolves to
// d itself (`mov d, d`, or the second of `mov a, b; mov b, a`) is left as
// it is: recording it would make resolve chase d forever.
func copyPropagate(f *ptx.Func, st *valueStats) {
	st.count(f)
	repl := map[int32]ptx.Value{}
	resolve := func(v ptx.Value) ptx.Value {
		for {
			r, ok := repl[v.ID()]
			if !ok {
				return v
			}
			v = r
		}
	}
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.Op != ptx.OpMov || in.Guard.Valid() || in.HasImm || !in.A.Valid() {
			continue
		}
		if st.defs[in.Dst.ID()] != 1 || st.defs[in.A.ID()] != 1 {
			continue
		}
		if src := resolve(in.A); src.ID() != in.Dst.ID() {
			repl[in.Dst.ID()] = src
		}
	}
	if len(repl) == 0 {
		return
	}
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.A.Valid() {
			in.A = resolve(in.A)
		}
		if in.B.Valid() {
			in.B = resolve(in.B)
		}
		if in.C.Valid() {
			in.C = resolve(in.C)
		}
		if in.Guard.Valid() {
			in.Guard = resolve(in.Guard)
		}
	}
}

// pureOp reports whether an instruction can be deleted when its result is
// unused. Memory operations stay: a dead load may still fault, and stores
// and atomics have effects.
func pureOp(op ptx.Op) bool {
	switch op {
	case ptx.OpMov, ptx.OpAdd, ptx.OpSub, ptx.OpMul, ptx.OpMad, ptx.OpMin,
		ptx.OpMax, ptx.OpAnd, ptx.OpOr, ptx.OpXor, ptx.OpNot, ptx.OpShl,
		ptx.OpShr, ptx.OpSetp, ptx.OpPAnd, ptx.OpPOr, ptx.OpPNot, ptx.OpSel,
		ptx.OpCvt, ptx.OpFma, ptx.OpMufu, ptx.OpSreg, ptx.OpLdParam:
		return true
	}
	return false
}

// reduceDeadAtomics drops the destination of atomics whose fetched old
// value is never read, turning ATOM into a no-return reduction (the RED
// form real ptxas emits). Beyond saving a register, this matters for
// determinism: an atomic's return value is whatever happened to be in
// memory when the hardware sequenced it, so a dead fetch register would
// carry scheduler-dependent bits to kernel exit — the difftest oracle's
// engine-axis comparison flagged exactly that. CAS keeps its destination:
// its result feeds retry loops and dropping it changes the idiom's shape.
func reduceDeadAtomics(f *ptx.Func, st *valueStats) {
	st.count(f)
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.Op == ptx.OpAtom && in.Atom != sass.AtomCAS &&
			in.Dst.Valid() && st.uses[in.Dst.ID()] == 0 {
			in.Dst = ptx.Value{}
		}
	}
}

// deadCodeEliminate deletes pure instructions whose destinations are never
// read, iterating to a fixed point (removals can orphan feeders).
func deadCodeEliminate(f *ptx.Func, st *valueStats) {
	for {
		st.count(f)
		keep := f.Instrs[:0]
		removed := false
		for i := range f.Instrs {
			in := f.Instrs[i]
			if in.Dst.Valid() && st.uses[in.Dst.ID()] == 0 && pureOp(in.Op) && !in.Guard.Valid() {
				removed = true
				continue
			}
			keep = append(keep, in)
		}
		f.Instrs = keep
		if !removed {
			return
		}
	}
}
