package concurrency

import (
	"fmt"

	"sassi/internal/analysis"
	"sassi/internal/mem"
	"sassi/internal/sass"
)

// sharedAccess is one static shared-memory access site.
type sharedAccess struct {
	idx     int
	addr    analysis.Value // generic shared-window address form
	width   int
	write   bool
	atomic  bool
	anchors analysis.Bits // barrier-interval anchors that may be live here
	// single: the access is guarded by a predicate provably satisfied by
	// at most one thread of the CTA (e.g. @P0 with P0 := tid==0); eq is
	// that guard's zero form. Such a site cannot race with itself, nor
	// with another single site selecting the same thread.
	single bool
	eq     analysis.Value
}

// CheckSharedRaces partitions the kernel into barrier intervals and
// reports shared-memory access pairs that (a) may execute in the same
// interval, (b) involve a write, (c) are not both atomic, and (d) whose
// addresses the value lattice cannot prove disjoint for two different
// threads of the CTA. Findings are warnings: the analysis is necessarily
// approximate, and its reports are meant to be confirmed by the dynamic
// SASSI race handler (internal/handlers.RaceChecker).
//
// Interval partitioning ("phase anchors"): a forward may-analysis whose
// facts are {kernel entry} ∪ {each BAR instruction}. An unguarded BAR
// kills every fact and generates itself — execution downstream is in the
// interval that BAR opened. Two accesses may overlap in time across
// warps only if they share an anchor: barriers are CTA-wide rendezvous,
// so accesses in intervals opened by different anchors are ordered by
// the barrier between them. Known approximation: when warps take
// different (warp-uniform) paths to DIFFERENT BAR instructions that
// rendezvous as the same dynamic barrier, the anchors differ but the
// intervals coincide; such cross-anchor races are missed (the built-in
// workloads keep every BAR on the common path).
//
// Address coverage: LDS/STS/ATOMS always denote shared memory (their
// effective address is the shared-window form base+offset|SharedBase,
// matching what the instrumentation hands the dynamic handler); generic
// LD/ST/ATOM count only when their address is a known constant inside
// the shared window — a symbolic generic address that could alias shared
// memory is NOT reported (documented under-approximation).
func CheckSharedRaces(cfg *sass.CFG, val *analysis.Valuation) []analysis.Diagnostic {
	k := cfg.Kernel
	var diags []analysis.Diagnostic
	for _, p := range SharedRacePairs(cfg, val) {
		msg := fmt.Sprintf(
			"possible shared-memory race: %s@%04x and %s@%04x may touch the same address in the same barrier interval (addresses not provably thread-disjoint)",
			k.Instrs[p[0]].Op, sass.InsOffset(p[0]), k.Instrs[p[1]].Op, sass.InsOffset(p[1]))
		diags = append(diags, analysis.Diagnostic{
			Sev: analysis.Warning, Check: analysis.CheckSharedRace,
			Kernel: k.Name, Instr: p[0], Msg: msg,
		})
	}
	return diags
}

// SharedRacePairs returns the racy access pairs as instruction-index
// pairs (first <= second) — the structured form the dynamic
// cross-validation compares against internal/handlers.RaceChecker's
// observed site pairs.
func SharedRacePairs(cfg *sass.CFG, val *analysis.Valuation) [][2]int {
	k := cfg.Kernel
	dims := analysis.BlockDims{X: k.BlockDim[0], Y: k.BlockDim[1], Z: k.BlockDim[2]}
	accs := collectSharedAccesses(cfg, val, dims)
	if len(accs) == 0 {
		return nil
	}

	var pairs [][2]int
	for i := 0; i < len(accs); i++ {
		for j := i; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if !a.write && !b.write {
				continue // read/read never races
			}
			if a.atomic && b.atomic {
				continue // atomics serialize against each other
			}
			if !bitsIntersect(a.anchors, b.anchors) {
				continue // a barrier always separates them
			}
			if i == j && a.single {
				continue // at most one thread ever executes this site
			}
			if i != j && a.single && b.single && analysis.EqualValues(a.eq, b.eq) {
				continue // both sites execute on the same unique thread
			}
			if analysis.DisjointAcrossThreads(a.addr, a.width, b.addr, b.width, dims) {
				continue
			}
			pairs = append(pairs, [2]int{a.idx, b.idx})
		}
	}
	return pairs
}

// collectSharedAccesses gathers the static shared-memory access sites
// with their symbolic addresses and barrier-interval anchors.
func collectSharedAccesses(cfg *sass.CFG, val *analysis.Valuation, dims analysis.BlockDims) []sharedAccess {
	k := cfg.Kernel
	anchors := phaseAnchors(cfg)
	var accs []sharedAccess
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if !in.Op.IsMem() {
			continue
		}
		ref, ok := memRef(in)
		if !ok {
			continue
		}
		addr := val.RegValue(i, ref.Reg).AddConst(ref.Imm)
		switch in.Op {
		case sass.OpLDS, sass.OpSTS, sass.OpATOMS:
			// Shared-window offsets; normalize to the generic form so
			// they compare against generic-space constants and the
			// dynamic handler's addresses.
			addr = addr.AddConst(int64(mem.SharedBase))
		case sass.OpLD, sass.OpST, sass.OpATOM:
			// Generic access: only a provably in-window constant address
			// is attributed to shared memory.
			c, isConst := addr.IsConst()
			if !isConst || !mem.IsShared(uint64(c)) {
				continue
			}
		default:
			continue // global/local/const/texture spaces cannot race on shared
		}
		acc := sharedAccess{
			idx:     i,
			addr:    addr,
			width:   in.Mods.Width.Bytes(),
			write:   in.Op.IsMemWrite(),
			atomic:  in.Op.IsAtomic(),
			anchors: anchors[i],
		}
		// A non-negated guard whose predicate implies an affine zero hit
		// by at most one thread makes this a single-thread site.
		if g := in.Guard; !g.IsAlways() && !g.Neg {
			if f := val.PredAt(i, g.Reg); f.EqZero != nil && analysis.SingleThreadZero(*f.EqZero, dims) {
				acc.single, acc.eq = true, *f.EqZero
			}
		}
		accs = append(accs, acc)
	}
	return accs
}

// memRef returns the instruction's memory operand.
func memRef(in *sass.Instruction) (sass.Operand, bool) {
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdMem {
			return s, true
		}
	}
	return sass.Operand{}, false
}

// phaseAnchors computes, per instruction, the set of barrier-interval
// anchors (bit 0 = kernel entry, bit 1+k = the k-th BAR instruction)
// whose interval the instruction may execute in.
func phaseAnchors(cfg *sass.CFG) []analysis.Bits {
	k := cfg.Kernel
	// Number the anchors.
	barBit := map[int]int{}
	nbits := 1
	for i := range k.Instrs {
		if k.Instrs[i].Op == sass.OpBAR {
			barBit[i] = nbits
			nbits++
		}
	}
	nb := len(cfg.Blocks)
	gen := make([]analysis.Bits, nb)
	kill := make([]analysis.Bits, nb)
	for b := 0; b < nb; b++ {
		gen[b] = analysis.NewBits(nbits)
		kill[b] = analysis.NewBits(nbits)
		blk := cfg.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			in := &k.Instrs[i]
			if in.Op != sass.OpBAR {
				continue
			}
			if in.Guard.IsAlways() {
				// The barrier definitely executes: downstream is in its
				// interval and no earlier anchor survives.
				kill[b].Fill(nbits)
				gen[b] = analysis.NewBits(nbits)
			}
			// A guarded BAR may not execute: generate without killing.
			gen[b].Set(barBit[i])
		}
	}
	boundary := analysis.NewBits(nbits)
	boundary.Set(0) // kernel entry anchor
	blockIn, _ := analysis.Solve(cfg, analysis.Problem{
		Dir: analysis.Forward, Meet: analysis.Union, Bits: nbits,
		Gen: gen, Kill: kill, Boundary: boundary,
	})
	// Expand to per-instruction sets.
	per := make([]analysis.Bits, len(k.Instrs))
	for b := 0; b < nb; b++ {
		blk := cfg.Blocks[b]
		cur := blockIn[b].Copy()
		for i := blk.Start; i < blk.End; i++ {
			per[i] = cur.Copy()
			in := &k.Instrs[i]
			if in.Op == sass.OpBAR {
				if in.Guard.IsAlways() {
					cur = analysis.NewBits(nbits)
				}
				cur.Set(barBit[i])
			}
		}
	}
	return per
}

// bitsIntersect reports whether two bit sets share a member.
func bitsIntersect(a, b analysis.Bits) bool {
	if a == nil || b == nil {
		return false
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}
