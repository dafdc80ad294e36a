package ptx

import (
	"fmt"
	"math"

	"sassi/internal/sass"
)

// Builder is the kernel-authoring API: the front-end-compiler analog. It
// provides typed value construction and structured control flow (If, While)
// that lowers to the SSY/SYNC divergence idioms the hardware expects.
//
// Builder methods panic at the call that breaks the PTX rule set (the
// per-instruction check Func.Verify applies); kernel construction is
// programmer code, not input handling.
type Builder struct {
	F      *Func
	labelN int
}

// NewKernel starts building a kernel.
func NewKernel(name string) *Builder {
	return &Builder{F: NewFunc(name)}
}

// ReqBlock declares the CTA shape the kernel is written for (cf. PTX
// .reqntid), giving static analyses exact tid bounds. Advisory: launches
// are not checked against it.
func (b *Builder) ReqBlock(x, y, z int) {
	b.F.ReqBlock = [3]int{x, y, z}
}

func (b *Builder) label(prefix string) string {
	b.labelN++
	return fmt.Sprintf(".%s_%d", prefix, b.labelN)
}

func (b *Builder) typeOf(v Value) Type { return b.F.TypeOf(v) }

// emit appends in, panicking if the PTX rule set refuses it.
func (b *Builder) emit(in Instr) {
	if err := b.F.check(&in); err != nil {
		panic(fmt.Sprintf("ptx: %s: %v", in.String(), err))
	}
	b.F.Emit(in)
}

// Parameters and constants.

// ParamU64 declares a 64-bit (pointer) kernel parameter and loads it.
func (b *Builder) ParamU64(name string) Value {
	b.F.AddParam(name, 8)
	d := b.F.NewValue(TU64)
	b.emit(Instr{Op: OpLdParam, Type: TU64, Dst: d, Param: name})
	return d
}

// ParamU32 declares a 32-bit kernel parameter and loads it.
func (b *Builder) ParamU32(name string) Value {
	b.F.AddParam(name, 4)
	d := b.F.NewValue(TU32)
	b.emit(Instr{Op: OpLdParam, Type: TU32, Dst: d, Param: name})
	return d
}

// ParamS32 declares a signed 32-bit kernel parameter and loads it.
func (b *Builder) ParamS32(name string) Value {
	b.F.AddParam(name, 4)
	d := b.F.NewValue(TS32)
	b.emit(Instr{Op: OpLdParam, Type: TS32, Dst: d, Param: name})
	return d
}

// ParamF32 declares a float kernel parameter and loads it.
func (b *Builder) ParamF32(name string) Value {
	b.F.AddParam(name, 4)
	d := b.F.NewValue(TF32)
	b.emit(Instr{Op: OpLdParam, Type: TF32, Dst: d, Param: name})
	return d
}

func (b *Builder) imm(t Type, v int64) Value {
	d := b.F.NewValue(t)
	b.emit(Instr{Op: OpMov, Type: t, Dst: d, Imm: v, HasImm: true})
	return d
}

// ImmU32 materializes an unsigned 32-bit constant.
func (b *Builder) ImmU32(v uint32) Value { return b.imm(TU32, int64(v)) }

// ImmS32 materializes a signed 32-bit constant.
func (b *Builder) ImmS32(v int32) Value { return b.imm(TS32, int64(v)) }

// ImmU64 materializes a 64-bit constant.
func (b *Builder) ImmU64(v uint64) Value { return b.imm(TU64, int64(v)) }

// ImmF32 materializes a float constant.
func (b *Builder) ImmF32(v float32) Value {
	return b.imm(TF32, int64(int32(math.Float32bits(v))))
}

// Special registers.

func (b *Builder) sreg(sr sass.SpecialReg) Value {
	d := b.F.NewValue(TU32)
	b.emit(Instr{Op: OpSreg, Type: TU32, Dst: d, SR: sr})
	return d
}

// TidX returns threadIdx.x.
func (b *Builder) TidX() Value { return b.sreg(sass.SRTidX) }

// TidY returns threadIdx.y.
func (b *Builder) TidY() Value { return b.sreg(sass.SRTidY) }

// CtaX returns blockIdx.x.
func (b *Builder) CtaX() Value { return b.sreg(sass.SRCtaidX) }

// CtaY returns blockIdx.y.
func (b *Builder) CtaY() Value { return b.sreg(sass.SRCtaidY) }

// NTidX returns blockDim.x.
func (b *Builder) NTidX() Value { return b.sreg(sass.SRNTidX) }

// NCtaX returns gridDim.x.
func (b *Builder) NCtaX() Value { return b.sreg(sass.SRNCtaidX) }

// LaneID returns the lane index within the warp.
func (b *Builder) LaneID() Value { return b.sreg(sass.SRLaneID) }

// GlobalTidX computes blockIdx.x*blockDim.x + threadIdx.x.
func (b *Builder) GlobalTidX() Value {
	return b.Mad(b.CtaX(), b.NTidX(), b.TidX())
}

// Variables and assignment (non-SSA mutation for loop counters).

// mov copies a into a fresh value of type t; a reinterpreting copy names
// a's type as src.
func (b *Builder) mov(t Type, a Value, src Type) Value {
	d := b.F.NewValue(t)
	b.emit(Instr{Op: OpMov, Type: t, SrcType: src, Dst: d, A: a})
	return d
}

// Var allocates a mutable value initialized from init.
func (b *Builder) Var(init Value) Value { return b.mov(b.typeOf(init), init, TInvalid) }

// Assign overwrites dst with src, of dst's type (a u32 for an s32 or the
// reverse).
func (b *Builder) Assign(dst, src Value) {
	b.emit(Instr{Op: OpMov, Type: b.typeOf(dst), Dst: dst, A: src})
}

// Arithmetic. Result type follows the first operand.

func (b *Builder) bin(op Op, a, c Value) Value {
	t := b.typeOf(a)
	d := b.F.NewValue(t)
	b.emit(Instr{Op: op, Type: t, Dst: d, A: a, B: c})
	return d
}

func (b *Builder) binI(op Op, a Value, imm int64) Value {
	t := b.typeOf(a)
	d := b.F.NewValue(t)
	b.emit(Instr{Op: op, Type: t, Dst: d, A: a, Imm: imm, HasImm: true})
	return d
}

// Add returns a+c.
func (b *Builder) Add(a, c Value) Value { return b.bin(OpAdd, a, c) }

// AddI returns a+imm.
func (b *Builder) AddI(a Value, imm int64) Value { return b.binI(OpAdd, a, imm) }

// Sub returns a-c.
func (b *Builder) Sub(a, c Value) Value { return b.bin(OpSub, a, c) }

// SubI returns a-imm.
func (b *Builder) SubI(a Value, imm int64) Value { return b.binI(OpAdd, a, -imm) }

// Mul returns a*c (low 32 bits for integers).
func (b *Builder) Mul(a, c Value) Value { return b.bin(OpMul, a, c) }

// MulI returns a*imm.
func (b *Builder) MulI(a Value, imm int64) Value { return b.binI(OpMul, a, imm) }

// Mad returns a*c+d.
func (b *Builder) Mad(a, c, d Value) Value {
	t := b.typeOf(a)
	r := b.F.NewValue(t)
	b.emit(Instr{Op: OpMad, Type: t, Dst: r, A: a, B: c, C: d})
	return r
}

// Min returns min(a,c) honoring signedness.
func (b *Builder) Min(a, c Value) Value { return b.bin(OpMin, a, c) }

// Max returns max(a,c) honoring signedness.
func (b *Builder) Max(a, c Value) Value { return b.bin(OpMax, a, c) }

// And returns a&c.
func (b *Builder) And(a, c Value) Value { return b.bin(OpAnd, a, c) }

// AndI returns a&imm.
func (b *Builder) AndI(a Value, imm int64) Value { return b.binI(OpAnd, a, imm) }

// Or returns a|c.
func (b *Builder) Or(a, c Value) Value { return b.bin(OpOr, a, c) }

// Xor returns a^c.
func (b *Builder) Xor(a, c Value) Value { return b.bin(OpXor, a, c) }

// XorI returns a^imm.
func (b *Builder) XorI(a Value, imm int64) Value { return b.binI(OpXor, a, imm) }

// Not returns ^a.
func (b *Builder) Not(a Value) Value {
	t := b.typeOf(a)
	d := b.F.NewValue(t)
	b.emit(Instr{Op: OpNot, Type: t, Dst: d, A: a})
	return d
}

// Shl returns a<<c.
func (b *Builder) Shl(a, c Value) Value { return b.bin(OpShl, a, c) }

// ShlI returns a<<imm.
func (b *Builder) ShlI(a Value, imm int64) Value { return b.binI(OpShl, a, imm) }

// Shr returns a>>c (arithmetic when a is signed).
func (b *Builder) Shr(a, c Value) Value { return b.bin(OpShr, a, c) }

// ShrI returns a>>imm.
func (b *Builder) ShrI(a Value, imm int64) Value { return b.binI(OpShr, a, imm) }

// Predicates.

// Setp compares a and c, returning a predicate.
func (b *Builder) Setp(cmp sass.CmpOp, a, c Value) Value {
	d := b.F.NewValue(TPred)
	b.emit(Instr{Op: OpSetp, Type: b.typeOf(a), Cmp: cmp, Dst: d, A: a, B: c})
	return d
}

// SetpI compares a against an immediate.
func (b *Builder) SetpI(cmp sass.CmpOp, a Value, imm int64) Value {
	d := b.F.NewValue(TPred)
	b.emit(Instr{Op: OpSetp, Type: b.typeOf(a), Cmp: cmp, Dst: d, A: a, Imm: imm, HasImm: true})
	return d
}

// PAnd returns a&&c for predicates.
func (b *Builder) PAnd(a, c Value) Value {
	d := b.F.NewValue(TPred)
	b.emit(Instr{Op: OpPAnd, Type: TPred, Dst: d, A: a, B: c})
	return d
}

// POr returns a||c for predicates.
func (b *Builder) POr(a, c Value) Value {
	d := b.F.NewValue(TPred)
	b.emit(Instr{Op: OpPOr, Type: TPred, Dst: d, A: a, B: c})
	return d
}

// PNot returns !a for a predicate.
func (b *Builder) PNot(a Value) Value {
	d := b.F.NewValue(TPred)
	b.emit(Instr{Op: OpPNot, Type: TPred, Dst: d, A: a})
	return d
}

// Sel returns pred ? a : c.
func (b *Builder) Sel(pred, a, c Value) Value {
	t := b.typeOf(a)
	d := b.F.NewValue(t)
	b.emit(Instr{Op: OpSel, Type: t, Dst: d, A: a, B: c, C: pred})
	return d
}

// Conversions.

// CvtU64 widens a 32-bit value to 64 bits (zero extension).
func (b *Builder) CvtU64(a Value) Value {
	d := b.F.NewValue(TU64)
	b.emit(Instr{Op: OpCvt, Type: TU64, SrcType: b.typeOf(a), Dst: d, A: a})
	return d
}

// CvtF32 converts an integer to float.
func (b *Builder) CvtF32(a Value) Value {
	d := b.F.NewValue(TF32)
	b.emit(Instr{Op: OpCvt, Type: TF32, SrcType: b.typeOf(a), Dst: d, A: a})
	return d
}

// CvtS32 truncates a float to a signed integer.
func (b *Builder) CvtS32(a Value) Value {
	d := b.F.NewValue(TS32)
	b.emit(Instr{Op: OpCvt, Type: TS32, SrcType: TF32, Dst: d, A: a})
	return d
}

// AsU32 reinterprets a 32-bit value as unsigned (no code emitted at SASS
// level).
func (b *Builder) AsU32(a Value) Value { return b.mov(TU32, a, b.typeOf(a)) }

// AsS32 reinterprets a 32-bit value as signed.
func (b *Builder) AsS32(a Value) Value { return b.mov(TS32, a, b.typeOf(a)) }

// Float special functions.

func (b *Builder) mufu(f sass.MufuFunc, a Value) Value {
	d := b.F.NewValue(TF32)
	b.emit(Instr{Op: OpMufu, Type: TF32, Mufu: f, Dst: d, A: a})
	return d
}

// Rcp returns 1/a.
func (b *Builder) Rcp(a Value) Value { return b.mufu(sass.MufuRCP, a) }

// Sqrt returns sqrt(a).
func (b *Builder) Sqrt(a Value) Value { return b.mufu(sass.MufuSQRT, a) }

// Rsq returns 1/sqrt(a).
func (b *Builder) Rsq(a Value) Value { return b.mufu(sass.MufuRSQ, a) }

// Sin returns sin(a).
func (b *Builder) Sin(a Value) Value { return b.mufu(sass.MufuSIN, a) }

// Cos returns cos(a).
func (b *Builder) Cos(a Value) Value { return b.mufu(sass.MufuCOS, a) }

// Ex2 returns 2**a.
func (b *Builder) Ex2(a Value) Value { return b.mufu(sass.MufuEX2, a) }

// Lg2 returns log2(a).
func (b *Builder) Lg2(a Value) Value { return b.mufu(sass.MufuLG2, a) }

// Fma returns a*c+d for floats.
func (b *Builder) Fma(a, c, d Value) Value {
	r := b.F.NewValue(TF32)
	b.emit(Instr{Op: OpFma, Type: TF32, Dst: r, A: a, B: c, C: d})
	return r
}

// Memory.

// Index computes base + (idx << elemShift) as a 64-bit address.
func (b *Builder) Index(base, idx Value, elemShift uint) Value {
	scaled := b.mov(TU32, idx, TInvalid)
	if elemShift > 0 {
		scaled = b.ShlI(scaled, int64(elemShift))
	}
	return b.Add(base, b.CvtU64(scaled))
}

func (b *Builder) ld(space Space, t Type, width int, addr Value, off int64) Value {
	d := b.F.NewValue(t)
	b.emit(Instr{Op: OpLd, Type: t, Space: space, Width: width, Dst: d, A: addr, Imm: off})
	return d
}

func (b *Builder) st(space Space, t Type, width int, addr Value, off int64, v Value) {
	b.emit(Instr{Op: OpSt, Type: t, Space: space, Width: width, A: addr, B: v, Imm: off})
}

// LdGlobalU32 loads a u32 from global memory at addr+off.
func (b *Builder) LdGlobalU32(addr Value, off int64) Value {
	return b.ld(SpGlobal, TU32, 4, addr, off)
}

// LdGlobalS32 loads an s32 from global memory.
func (b *Builder) LdGlobalS32(addr Value, off int64) Value {
	return b.ld(SpGlobal, TS32, 4, addr, off)
}

// LdGlobalF32 loads an f32 from global memory.
func (b *Builder) LdGlobalF32(addr Value, off int64) Value {
	return b.ld(SpGlobal, TF32, 4, addr, off)
}

// LdGlobalU8 loads a byte (zero-extended).
func (b *Builder) LdGlobalU8(addr Value, off int64) Value {
	return b.ld(SpGlobal, TU32, 1, addr, off)
}

// StGlobalU32 stores a u32 to global memory.
func (b *Builder) StGlobalU32(addr Value, off int64, v Value) {
	b.st(SpGlobal, TU32, 4, addr, off, v)
}

// StGlobalF32 stores an f32 to global memory.
func (b *Builder) StGlobalF32(addr Value, off int64, v Value) {
	b.st(SpGlobal, TF32, 4, addr, off, v)
}

// StGlobalU8 stores the low byte of v.
func (b *Builder) StGlobalU8(addr Value, off int64, v Value) {
	b.st(SpGlobal, TU32, 1, addr, off, v)
}

// LdSharedU32 loads a u32 from CTA shared memory at byte offset addr+off.
func (b *Builder) LdSharedU32(addr Value, off int64) Value {
	return b.ld(SpShared, TU32, 4, addr, off)
}

// LdSharedF32 loads an f32 from CTA shared memory.
func (b *Builder) LdSharedF32(addr Value, off int64) Value {
	return b.ld(SpShared, TF32, 4, addr, off)
}

// StSharedU32 stores a u32 to CTA shared memory.
func (b *Builder) StSharedU32(addr Value, off int64, v Value) {
	b.st(SpShared, TU32, 4, addr, off, v)
}

// StSharedF32 stores an f32 to CTA shared memory.
func (b *Builder) StSharedF32(addr Value, off int64, v Value) {
	b.st(SpShared, TF32, 4, addr, off, v)
}

// AtomAddGlobal atomically adds v at addr+off, returning the old value.
func (b *Builder) AtomAddGlobal(addr Value, off int64, v Value) Value {
	d := b.F.NewValue(b.typeOf(v))
	b.emit(Instr{Op: OpAtom, Type: b.typeOf(v), Atom: sass.AtomADD, Width: 4,
		Space: SpGlobal, Dst: d, A: addr, B: v, Imm: off})
	return d
}

// AtomMaxGlobal atomically takes the max.
func (b *Builder) AtomMaxGlobal(addr Value, off int64, v Value) Value {
	d := b.F.NewValue(b.typeOf(v))
	b.emit(Instr{Op: OpAtom, Type: b.typeOf(v), Atom: sass.AtomMAX, Width: 4,
		Space: SpGlobal, Dst: d, A: addr, B: v, Imm: off})
	return d
}

// AtomAddShared atomically adds v at shared byte offset addr+off.
func (b *Builder) AtomAddShared(addr Value, off int64, v Value) Value {
	d := b.F.NewValue(b.typeOf(v))
	b.emit(Instr{Op: OpAtom, Type: b.typeOf(v), Atom: sass.AtomADD, Width: 4,
		Space: SpShared, Dst: d, A: addr, B: v, Imm: off})
	return d
}

// ExchGlobal atomically exchanges v at addr+off.
func (b *Builder) ExchGlobal(addr Value, off int64, v Value) Value {
	d := b.F.NewValue(b.typeOf(v))
	b.emit(Instr{Op: OpAtom, Type: b.typeOf(v), Atom: sass.AtomEXCH, Width: 4,
		Space: SpGlobal, Dst: d, A: addr, B: v, Imm: off})
	return d
}

// LdLocalU32 loads a u32 from per-thread local memory at byte offset
// addr+off (space-relative, like ld.local).
func (b *Builder) LdLocalU32(addr Value, off int64) Value {
	return b.ld(SpLocal, TU32, 4, addr, off)
}

// LdLocalF32 loads an f32 from per-thread local memory.
func (b *Builder) LdLocalF32(addr Value, off int64) Value {
	return b.ld(SpLocal, TF32, 4, addr, off)
}

// StLocalU32 stores a u32 to per-thread local memory.
func (b *Builder) StLocalU32(addr Value, off int64, v Value) {
	b.st(SpLocal, TU32, 4, addr, off, v)
}

// StLocalF32 stores an f32 to per-thread local memory.
func (b *Builder) StLocalF32(addr Value, off int64, v Value) {
	b.st(SpLocal, TF32, 4, addr, off, v)
}

// Warp collectives.

// Ballot returns the 32-bit mask of active lanes where pred holds
// (vote.ballot.b32).
func (b *Builder) Ballot(pred Value) Value {
	d := b.F.NewValue(TU32)
	b.emit(Instr{Op: OpVote, Type: TU32, Vote: sass.VoteBALLOT, Dst: d, A: pred})
	return d
}

// VoteAll returns a predicate: pred holds on every active lane.
func (b *Builder) VoteAll(pred Value) Value {
	d := b.F.NewValue(TPred)
	b.emit(Instr{Op: OpVote, Type: TPred, Vote: sass.VoteALL, Dst: d, A: pred})
	return d
}

// VoteAny returns a predicate: pred holds on some active lane.
func (b *Builder) VoteAny(pred Value) Value {
	d := b.F.NewValue(TPred)
	b.emit(Instr{Op: OpVote, Type: TPred, Vote: sass.VoteANY, Dst: d, A: pred})
	return d
}

// Shfl reads v from the lane selected by lane&31 (shfl.idx). Inactive
// source lanes yield the reading lane's own value.
func (b *Builder) Shfl(v, lane Value) Value {
	t := b.typeOf(v)
	d := b.F.NewValue(t)
	b.emit(Instr{Op: OpShfl, Type: t, Dst: d, A: v, B: lane})
	return d
}

// ShflI is Shfl with an immediate source lane.
func (b *Builder) ShflI(v Value, lane int64) Value {
	t := b.typeOf(v)
	d := b.F.NewValue(t)
	b.emit(Instr{Op: OpShfl, Type: t, Dst: d, A: v, Imm: lane, HasImm: true})
	return d
}

// Control flow.

// Bar emits a CTA-wide barrier.
func (b *Builder) Bar() { b.emit(Instr{Op: OpBar}) }

// Exit terminates the thread.
func (b *Builder) Exit() { b.emit(Instr{Op: OpExit}) }

// Trap raises a device-side fault (assertion failure analog).
func (b *Builder) Trap() { b.emit(Instr{Op: OpTrap}) }

// If runs then() for lanes where cond holds, reconverging afterwards.
func (b *Builder) If(cond Value, then func()) {
	reconv := b.label("reconv")
	sync := b.label("sync")
	b.emit(Instr{Op: OpSSY, Label: reconv})
	b.emit(Instr{Op: OpBra, Label: sync, Guard: cond, GuardNeg: true})
	then()
	b.emit(Instr{Op: OpLabel, Label: sync})
	b.emit(Instr{Op: OpSync})
	b.emit(Instr{Op: OpLabel, Label: reconv})
}

// IfElse runs then() where cond holds and els() elsewhere.
func (b *Builder) IfElse(cond Value, then, els func()) {
	reconv := b.label("reconv")
	elseL := b.label("else")
	b.emit(Instr{Op: OpSSY, Label: reconv})
	b.emit(Instr{Op: OpBra, Label: elseL, Guard: cond, GuardNeg: true})
	then()
	b.emit(Instr{Op: OpSync})
	b.emit(Instr{Op: OpLabel, Label: elseL})
	els()
	b.emit(Instr{Op: OpSync})
	b.emit(Instr{Op: OpLabel, Label: reconv})
}

// While loops while cond() yields true, with per-lane divergence handled
// by the reconvergence stack.
func (b *Builder) While(cond func() Value, body func()) {
	exit := b.label("exit")
	head := b.label("head")
	sync := b.label("wsync")
	b.emit(Instr{Op: OpSSY, Label: exit})
	b.emit(Instr{Op: OpLabel, Label: head})
	c := cond()
	b.emit(Instr{Op: OpBra, Label: sync, Guard: c, GuardNeg: true})
	body()
	b.emit(Instr{Op: OpBra, Label: head})
	b.emit(Instr{Op: OpLabel, Label: sync})
	b.emit(Instr{Op: OpSync})
	b.emit(Instr{Op: OpLabel, Label: exit})
}

// ForRange runs body(i) for i in [start, end) with unit stride.
func (b *Builder) ForRange(start, end Value, body func(i Value)) {
	i := b.Var(start)
	b.While(func() Value {
		return b.Setp(sass.CmpLT, i, end)
	}, func() {
		body(i)
		b.Assign(i, b.AddI(i, 1))
	})
}

// Done verifies and returns the finished function.
func (b *Builder) Done() (*Func, error) {
	// Ensure termination.
	if n := len(b.F.Instrs); n == 0 || b.F.Instrs[n-1].Op != OpExit {
		b.Exit()
	}
	if err := b.F.Verify(); err != nil {
		return nil, err
	}
	return b.F, nil
}

// MustDone is Done, panicking on verification failure.
func (b *Builder) MustDone() *Func {
	f, err := b.Done()
	if err != nil {
		panic(err)
	}
	return f
}
