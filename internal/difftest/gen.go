package difftest

import (
	"math/rand"

	"sassi/internal/sass"
)

// Size bounds the generated kernel. The zero value is replaced by
// DefaultSize; the fuzz harness uses the smaller FuzzSize.
type Size struct {
	MaxStmts int // top-level statement budget
	MaxDepth int // control-flow nesting depth
	MaxBody  int // statements per nested body
	MaxGridX int // CTAs (>= 1)
	MaxU     int // u32 pool bound (>= 4)
	MaxF     int // f32 pool bound (>= 1)
}

// DefaultSize is the campaign-sized kernel envelope: enough statements and
// register pressure that allocations spill past sassi.HandlerMaxRegs, with
// trip counts small enough that a run stays in the low milliseconds.
func DefaultSize() Size {
	return Size{MaxStmts: 24, MaxDepth: 2, MaxBody: 5, MaxGridX: 4, MaxU: 14, MaxF: 4}
}

// FuzzSize is a reduced envelope for the go-fuzz target, trading coverage
// per kernel for executions per second.
func FuzzSize() Size {
	return Size{MaxStmts: 10, MaxDepth: 2, MaxBody: 3, MaxGridX: 2, MaxU: 8, MaxF: 2}
}

func (sz Size) orDefault() Size {
	if sz.MaxStmts == 0 {
		return DefaultSize()
	}
	return sz
}

// SplitMix is sass.SplitMix: the per-run seed of (seed, run), so outcomes
// are a pure function of (seed, run index) at any worker count.
func SplitMix(seed, run uint64) uint64 { return sass.SplitMix(seed, run) }

// stmtWeight is the generator's opcode mix. Weights skew toward ALU and
// memory traffic, with enough control flow, collectives, and barriers that
// every injection site class (before/after, mem, branch, reg-write) and
// both divergence mechanisms (SSY/SYNC and predication) appear routinely.
var stmtWeights = []struct {
	kind   StmtKind
	weight int
	nested bool // legal inside divergent bodies
}{
	{StArith, 14, true},
	{StArithI, 8, true},
	{StArithF, 6, true},
	{StMufu, 3, true},
	{StCvtUF, 3, true},
	{StCvtFU, 3, true},
	{StSel, 5, true},
	{StVote, 4, true},
	{StShfl, 4, true},
	{StLdIn, 7, true},
	{StStOut, 6, true},
	{StLdOut, 4, true},
	{StAtom, 4, true},
	{StLdLocal, 4, true},
	{StStLocal, 4, true},
	{StLdShared, 3, true},
	{StStShared, 3, true},
	{StBar, 2, false},
	{StXchg, 4, false},
	{StIf, 6, true},
	{StIfElse, 4, true},
	{StFor, 5, false}, // loops stay in uniform context: const trip counts
}

// Generate derives a random kernel from seed. Termination is structural:
// the only loops are StFor with trip counts in [1,4], and If/IfElse bodies
// are acyclic, so every rendered kernel exits in bounded steps.
func Generate(seed uint64, sz Size) *Prog {
	sz = sz.orDefault()
	r := rand.New(rand.NewSource(int64(SplitMix(seed, 0))))
	p := &Prog{
		Seed:   seed,
		GridX:  1 + r.Intn(sz.MaxGridX),
		BlockX: 32 << r.Intn(2), // 32 or 64: one or two warps per CTA
		NumU:   4 + r.Intn(sz.MaxU-3),
		NumF:   1 + r.Intn(sz.MaxF),
	}
	n := 1 + sz.MaxStmts/2 + r.Intn(sz.MaxStmts/2)
	p.Stmts = genStmts(r, sz, n, 0, false)
	return p
}

func genStmts(r *rand.Rand, sz Size, n, depth int, nested bool) []Stmt {
	out := make([]Stmt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, genStmt(r, sz, depth, nested))
	}
	return out
}

func genStmt(r *rand.Rand, sz Size, depth int, nested bool) Stmt {
	for {
		w := stmtWeights[pickWeighted(r)]
		if nested && !w.nested {
			continue
		}
		if (w.kind == StIf || w.kind == StIfElse || w.kind == StFor) && depth >= sz.MaxDepth {
			continue
		}
		s := Stmt{
			Kind: w.kind,
			D:    r.Intn(64),
			A:    r.Intn(64),
			B:    r.Intn(64),
			Op:   r.Intn(64),
			K:    r.Intn(64),
		}
		switch w.kind {
		case StIf:
			s.Body = genStmts(r, sz, 1+r.Intn(sz.MaxBody), depth+1, true)
		case StIfElse:
			s.Body = genStmts(r, sz, 1+r.Intn(sz.MaxBody), depth+1, true)
			s.Else = genStmts(r, sz, 1+r.Intn(sz.MaxBody), depth+1, true)
		case StFor:
			s.Trip = 1 + r.Intn(4)
			// Loop bodies inherit uniformity (const trips), so barriers
			// stay legal inside; nested=false keeps that invariant.
			s.Body = genStmts(r, sz, 1+r.Intn(sz.MaxBody), depth+1, nested)
		}
		return s
	}
}

var totalWeight = func() int {
	t := 0
	for _, w := range stmtWeights {
		t += w.weight
	}
	return t
}()

func pickWeighted(r *rand.Rand) int {
	x := r.Intn(totalWeight)
	for i, w := range stmtWeights {
		if x < w.weight {
			return i
		}
		x -= w.weight
	}
	return len(stmtWeights) - 1
}
