// Package difftest is the generative differential-testing subsystem: a
// seeded random kernel generator over the ptx builder, a multi-way
// execution oracle that machine-checks SASSI's central correctness claim
// (§5–§6: injected handler calls are ABI-transparent, so an instrumented
// kernel must leave architectural state bit-identical), and a shrinker
// that minimizes failing kernels to standalone .ptx repros.
//
// The oracle matrix runs every generated kernel four ways — uninstrumented
// and instrumented with each registered handler tool, each on parallel and
// on sequential SMs — and compares final state along two axes:
//
//   - Engine axis (same program, parallel vs sequential SMs): full
//     bit-equality of global/shared/local memory, complete register files,
//     predicates, condition codes, kernel statistics, and obs metric
//     snapshots, all of which the parallel engine promises deterministic.
//   - Instrumentation axis (uninstrumented vs instrumented, same engine):
//     transparent equality — the state the injection ABI promises to
//     preserve. GPRs below sassi.HandlerMaxRegs are legitimately reused as
//     handler scratch when dead, the stack pointer moves by the injection
//     frame, and local bytes under the relocated frames go stale, so the
//     comparison covers kernel-owned global buffers, shared memory, the
//     generator's fixed local window, the full predicate file + CC, and
//     every GPR at or above HandlerMaxRegs.
//
// Tool-owned device state (profiler counter banks, value tables) is
// deliberately outside both comparisons: no determinism is promised for it
// across engines.
package difftest

import (
	"fmt"

	"sassi/internal/ptx"
	"sassi/internal/sass"
)

// Fixed kernel shape shared by the generator, the oracle, and repro files.
const (
	// KernelName is the generated kernel's entry name.
	KernelName = "fz"

	// InWords sizes the read-only input buffer (power of two: loads index
	// it through a mask, so any u32 value yields an in-bounds slot).
	InWords = 256

	// OutStride is the per-thread slice of the output buffer, in words.
	// Slots 0..OutDataSlots-1 are random-access scratch; the last slot
	// receives the variable-pool checksum the epilogue writes, which keeps
	// every pool variable live to kernel exit.
	OutStride    = 8
	OutDataSlots = 4

	// AccWords sizes the atomic-accumulator buffer. The kernel only ever
	// atomically adds/maxes into it and never reads it back, so its final
	// content is deterministic regardless of SM interleaving.
	AccWords = 8

	// LocalWords is the per-thread local-memory window the generator
	// addresses with fixed offsets. It sits far below the injection
	// frames, which live just under the stack top (DefaultStackBytes), so
	// the transparency comparison covers it byte-for-byte.
	LocalWords = 16
)

// LocalBytes is the span of per-thread local memory the oracle compares on
// the instrumentation axis.
const LocalBytes = LocalWords * 4

// StmtKind enumerates generated statement forms.
type StmtKind int

// Statement kinds. Operand fields A/B select pool variables (reduced
// modulo the pool size at render time), D selects the destination
// variable, Op picks the sub-operation, and K picks slots/offsets/lanes.
const (
	StArith    StmtKind = iota // u[D] = intop(u[A], u[B])
	StArithI                   // u[D] = intop(u[A], imm K)
	StArithF                   // f[D] = floatop(f[A], f[B])
	StMufu                     // f[D] = mufu(f[A])
	StCvtUF                    // f[D] = cvt.f32(u[A])
	StCvtFU                    // u[D] = bits(f[A]) or bits(cvt.s32(f[A]))
	StSel                      // u[D] = setp(u[A] cmp u[B]) ? u[A] : u[D]
	StVote                     // u[D] = ballot / select-on-all / select-on-any
	StShfl                     // u[D] = shfl.idx(u[A], lane)
	StLdIn                     // u[D] = in[u[A] & (InWords-1)]
	StStOut                    // out[self][K] = u[A]
	StLdOut                    // u[D] = out[self][K]
	StAtom                     // atom add/max into acc or shared accumulator
	StLdLocal                  // u[D] = local[K]
	StStLocal                  // local[K] = u[A]
	StLdShared                 // u[D] = shared[own slot]
	StStShared                 // shared[own slot] = u[A]
	StBar                      // barrier (uniform context only)
	StXchg                     // cross-thread shared exchange with barriers
	StIf                       // if u[A] cmp u[B] { Body }
	StIfElse                   // if u[A] cmp u[B] { Body } else { Else }
	StFor                      // for i in [0, Trip) { u[D] = i; Body }
	numStmtKinds
)

// Stmt is one generated statement.
type Stmt struct {
	Kind StmtKind
	D    int `json:",omitempty"` // destination pool index
	A    int `json:",omitempty"` // first source pool index
	B    int `json:",omitempty"` // second source pool index
	Op   int `json:",omitempty"` // sub-operation selector
	K    int `json:",omitempty"` // slot / offset / lane / immediate selector

	Trip int    `json:",omitempty"` // StFor trip count (bounded)
	Body []Stmt `json:",omitempty"`
	Else []Stmt `json:",omitempty"`
}

// Prog is a generated kernel: launch geometry, variable-pool sizes, and a
// statement list. It is the unit the shrinker minimizes and repro files
// serialize — rendering the same Prog always yields the same PTX.
type Prog struct {
	Seed   uint64 // generator seed (informational; carried into repros)
	GridX  int    // CTAs
	BlockX int    // threads per CTA (multiple of 32, power of two)
	NumU   int    // u32 variable-pool size (>= 1)
	NumF   int    // f32 variable-pool size (>= 1)
	Stmts  []Stmt
}

// Threads returns the total launched thread count.
func (p *Prog) Threads() int { return p.GridX * p.BlockX }

// OutWords returns the output-buffer size in words.
func (p *Prog) OutWords() int { return p.Threads() * OutStride }

// Clone returns a deep copy.
func (p *Prog) Clone() *Prog {
	q := *p
	q.Stmts = cloneStmts(p.Stmts)
	return &q
}

func cloneStmts(ss []Stmt) []Stmt {
	if ss == nil {
		return nil
	}
	out := make([]Stmt, len(ss))
	for i, s := range ss {
		out[i] = s
		out[i].Body = cloneStmts(s.Body)
		out[i].Else = cloneStmts(s.Else)
	}
	return out
}

// NumStmts counts statements recursively.
func (p *Prog) NumStmts() int { return countStmts(p.Stmts) }

func countStmts(ss []Stmt) int {
	n := 0
	for i := range ss {
		n += 1 + countStmts(ss[i].Body) + countStmts(ss[i].Else)
	}
	return n
}

// renderer carries the builder environment while turning a Prog into PTX.
type renderer struct {
	p  *Prog
	b  *ptx.Builder
	u  []ptx.Value // mutable u32 pool
	f  []ptx.Value // mutable f32 pool
	in ptx.Value   // read-only input base (u64)
	my ptx.Value   // this thread's output slice base (u64)
	ac ptx.Value   // atomic accumulator base (u64)
	sh ptx.Value   // this thread's shared slot byte offset (u32)
	lz ptx.Value   // local-window base register (u32 zero)

	tid      ptx.Value
	shSlots  int64 // byte offset of the per-thread slot array
	shAccOff int64 // byte offset of the shared atomic accumulator
}

// Build renders the Prog into a verified PTX module. Builder type errors
// surface as errors rather than panics so the fuzzer can report them.
func (p *Prog) Build() (m *ptx.Module, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("difftest: render %s: %v", KernelName, r)
		}
	}()
	if p.GridX < 1 || p.BlockX < 32 || p.BlockX&(p.BlockX-1) != 0 {
		return nil, fmt.Errorf("difftest: bad geometry grid=%d block=%d", p.GridX, p.BlockX)
	}
	if p.NumU < 1 || p.NumF < 1 {
		return nil, fmt.Errorf("difftest: empty variable pool")
	}
	b := ptx.NewKernel(KernelName)
	b.ReqBlock(p.BlockX, 1, 1)
	rc := &renderer{p: p, b: b}
	rc.prologue()
	rc.stmts(p.Stmts, true)
	rc.epilogue()
	fn, err := b.Done()
	if err != nil {
		return nil, fmt.Errorf("difftest: render %s: %w", KernelName, err)
	}
	mod := ptx.NewModule()
	mod.Add(fn)
	return mod, nil
}

// prologue declares parameters, allocates shared regions, and seeds the
// variable pools with thread-dependent and constant values.
func (rc *renderer) prologue() {
	b, p := rc.b, rc.p
	rc.in = b.ParamU64("in")
	out := b.ParamU64("out")
	rc.ac = b.ParamU64("acc")

	rc.shSlots = int64(b.F.AllocShared(p.BlockX * 4))
	rc.shAccOff = int64(b.F.AllocShared(AccWords * 4))

	rc.tid = b.TidX()
	gtid := b.GlobalTidX()
	rc.my = b.Index(out, b.MulI(gtid, OutStride), 2)
	rc.sh = b.AddI(b.ShlI(rc.tid, 2), rc.shSlots)
	rc.lz = b.Var(b.ImmU32(0))

	lane := b.LaneID()
	rc.u = make([]ptx.Value, p.NumU)
	for i := range rc.u {
		var init ptx.Value
		switch i % 4 {
		case 0:
			init = b.AddI(rc.tid, int64(i)*7+1)
		case 1:
			init = b.AddI(gtid, int64(i)*13+3)
		case 2:
			init = b.ImmU32(0x9e3779b9 * uint32(i+1))
		default:
			init = b.MulI(b.AddI(lane, int64(i)), 0x85ebca6b)
		}
		rc.u[i] = b.Var(init)
	}
	rc.f = make([]ptx.Value, p.NumF)
	for i := range rc.f {
		rc.f[i] = b.Var(b.CvtF32(b.AddI(rc.tid, int64(i)+1)))
	}

	// Define the local window and this thread's shared slot so loads
	// never read uninitialized scratch.
	for k := 0; k < LocalWords; k++ {
		b.StLocalU32(rc.lz, int64(4*k), rc.u[k%len(rc.u)])
	}
	b.StSharedU32(rc.sh, 0, rc.u[0])
	b.Bar()
}

// epilogue folds every pool variable into a checksum stored in the
// thread's last output slot. This keeps the whole pool live across all
// instrumentation sites (so an injector that clobbers a live register is
// observable in memory, not just in the register-file comparison).
func (rc *renderer) epilogue() {
	b := rc.b
	sum := b.Var(b.ImmU32(0))
	for _, v := range rc.u {
		b.Assign(sum, b.Xor(sum, v))
	}
	for _, v := range rc.f {
		b.Assign(sum, b.Xor(sum, b.AsU32(v)))
	}
	b.StGlobalU32(rc.my, int64(4*(OutStride-1)), sum)
}

func (rc *renderer) U(i int) ptx.Value { return rc.u[mod(i, len(rc.u))] }
func (rc *renderer) F(i int) ptx.Value { return rc.f[mod(i, len(rc.f))] }

func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// cmpOf maps a sub-operation selector onto a comparison operator.
func cmpOf(op int) sass.CmpOp {
	return []sass.CmpOp{sass.CmpLT, sass.CmpLE, sass.CmpGT,
		sass.CmpGE, sass.CmpEQ, sass.CmpNE}[mod(op, 6)]
}

// stmts renders a statement list. uniform tracks whether control flow is
// provably CTA-uniform here — barriers and cross-thread shared exchanges
// are only rendered in uniform context (the generator only places them
// there; the shrinker can only delete or hoist, which preserves this).
func (rc *renderer) stmts(ss []Stmt, uniform bool) {
	for i := range ss {
		rc.stmt(&ss[i], uniform)
	}
}

func (rc *renderer) stmt(s *Stmt, uniform bool) {
	b := rc.b
	switch s.Kind {
	case StArith:
		a, c := rc.U(s.A), rc.U(s.B)
		var v ptx.Value
		switch mod(s.Op, 9) {
		case 0:
			v = b.Add(a, c)
		case 1:
			v = b.Sub(a, c)
		case 2:
			v = b.Mul(a, c)
		case 3:
			v = b.Min(a, c)
		case 4:
			v = b.Max(a, c)
		case 5:
			v = b.And(a, c)
		case 6:
			v = b.Or(a, c)
		case 7:
			v = b.Xor(a, c)
		default:
			v = b.Mad(a, c, rc.U(s.D))
		}
		b.Assign(rc.U(s.D), v)
	case StArithI:
		a := rc.U(s.A)
		imm := int64(int32(uint32(s.K)*0x9e3779b9 + 1))
		var v ptx.Value
		switch mod(s.Op, 6) {
		case 0:
			v = b.AddI(a, imm)
		case 1:
			v = b.MulI(a, imm|1)
		case 2:
			v = b.AndI(a, imm)
		case 3:
			v = b.XorI(a, imm)
		case 4:
			v = b.ShlI(a, imm&31)
		default:
			v = b.ShrI(a, imm&31)
		}
		b.Assign(rc.U(s.D), v)
	case StArithF:
		a, c := rc.F(s.A), rc.F(s.B)
		var v ptx.Value
		switch mod(s.Op, 6) {
		case 0:
			v = b.Add(a, c)
		case 1:
			v = b.Sub(a, c)
		case 2:
			v = b.Mul(a, c)
		case 3:
			v = b.Min(a, c)
		case 4:
			v = b.Max(a, c)
		default:
			v = b.Fma(a, c, rc.F(s.D))
		}
		b.Assign(rc.F(s.D), v)
	case StMufu:
		a := rc.F(s.A)
		var v ptx.Value
		switch mod(s.Op, 7) {
		case 0:
			v = b.Rcp(a)
		case 1:
			v = b.Sqrt(a)
		case 2:
			v = b.Rsq(a)
		case 3:
			v = b.Sin(a)
		case 4:
			v = b.Cos(a)
		case 5:
			v = b.Ex2(a)
		default:
			v = b.Lg2(a)
		}
		b.Assign(rc.F(s.D), v)
	case StCvtUF:
		b.Assign(rc.F(s.D), b.CvtF32(rc.U(s.A)))
	case StCvtFU:
		if s.Op%2 == 0 {
			b.Assign(rc.U(s.D), b.AsU32(rc.F(s.A)))
		} else {
			b.Assign(rc.U(s.D), b.AsU32(b.CvtS32(rc.F(s.A))))
		}
	case StSel:
		pr := b.Setp(cmpOf(s.Op), rc.U(s.A), rc.U(s.B))
		b.Assign(rc.U(s.D), b.Sel(pr, rc.U(s.A), rc.U(s.D)))
	case StVote:
		pr := b.Setp(cmpOf(s.Op), rc.U(s.A), rc.U(s.B))
		var v ptx.Value
		switch mod(s.K, 3) {
		case 0:
			v = b.Ballot(pr)
		case 1:
			v = b.Sel(b.VoteAll(pr), rc.U(s.A), rc.U(s.B))
		default:
			v = b.Sel(b.VoteAny(pr), rc.U(s.B), rc.U(s.A))
		}
		b.Assign(rc.U(s.D), v)
	case StShfl:
		var v ptx.Value
		if s.Op%2 == 0 {
			v = b.Shfl(rc.U(s.A), b.AndI(rc.U(s.B), 31))
		} else {
			v = b.ShflI(rc.U(s.A), int64(mod(s.K, 32)))
		}
		b.Assign(rc.U(s.D), v)
	case StLdIn:
		idx := b.AndI(rc.U(s.A), InWords-1)
		b.Assign(rc.U(s.D), b.LdGlobalU32(b.Index(rc.in, idx, 2), 0))
	case StStOut:
		b.StGlobalU32(rc.my, int64(4*mod(s.K, OutDataSlots)), rc.U(s.A))
	case StLdOut:
		b.Assign(rc.U(s.D), b.LdGlobalU32(rc.my, int64(4*mod(s.K, OutDataSlots))))
	case StAtom:
		// Accumulators are write-only from the kernel's perspective;
		// results are discarded (an atomic's return value is
		// interleaving-dependent and would be a false divergence). Slots
		// are split by operation — ADD into the low half, MAX into the
		// high half — because a slot receiving BOTH does not commute
		// (max(a+x,y) != max(a,y)+x), which the oracle's first campaign
		// caught as a seq-vs-par divergence in acc[].
		switch mod(s.Op, 3) {
		case 0:
			b.AtomAddGlobal(rc.ac, int64(4*mod(s.K, AccWords/2)), rc.U(s.A))
		case 1:
			b.AtomMaxGlobal(rc.ac, int64(4*(AccWords/2+mod(s.K, AccWords/2))), rc.U(s.A))
		default:
			off := rc.shAccOff + int64(4*mod(s.K, AccWords))
			b.AtomAddShared(b.ImmU32(uint32(off)), 0, rc.U(s.A))
		}
	case StLdLocal:
		b.Assign(rc.U(s.D), b.LdLocalU32(rc.lz, int64(4*mod(s.K, LocalWords))))
	case StStLocal:
		b.StLocalU32(rc.lz, int64(4*mod(s.K, LocalWords)), rc.U(s.A))
	case StLdShared:
		b.Assign(rc.U(s.D), b.LdSharedU32(rc.sh, 0))
	case StStShared:
		b.StSharedU32(rc.sh, 0, rc.U(s.A))
	case StBar:
		if uniform {
			b.Bar()
		}
	case StXchg:
		if !uniform {
			return
		}
		// Publish, sync, read a rotated neighbour's slot, sync again so
		// later own-slot writes can't race earlier cross-thread reads.
		b.StSharedU32(rc.sh, 0, rc.U(s.A))
		b.Bar()
		other := b.AndI(b.AddI(rc.tid, int64(1+mod(s.K, 7))), int64(rc.p.BlockX-1))
		v := b.LdSharedU32(b.AddI(b.ShlI(other, 2), rc.shSlots), 0)
		b.Bar()
		b.Assign(rc.U(s.D), v)
	case StIf:
		cond := b.Setp(cmpOf(s.Op), rc.U(s.A), rc.U(s.B))
		b.If(cond, func() { rc.stmts(s.Body, false) })
	case StIfElse:
		cond := b.Setp(cmpOf(s.Op), rc.U(s.A), rc.U(s.B))
		b.IfElse(cond,
			func() { rc.stmts(s.Body, false) },
			func() { rc.stmts(s.Else, false) })
	case StFor:
		trip := mod(s.Trip, 4) + 1
		b.ForRange(b.Var(b.ImmU32(0)), b.ImmU32(uint32(trip)), func(i ptx.Value) {
			b.Assign(rc.U(s.D), i)
			rc.stmts(s.Body, uniform)
		})
	}
}
