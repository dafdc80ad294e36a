// Package ptx defines a virtual-ISA intermediate representation modeled on
// NVIDIA's PTX: typed virtual registers, an unbounded register file, and
// explicit memory spaces. Kernels are authored against the Builder API (the
// front-end-compiler analog) and lowered to SASS by internal/ptxas (the
// backend-compiler analog). SASSI runs after that lowering, exactly as the
// paper places it: the final pass of the backend, after all optimization.
package ptx

import (
	"fmt"

	"sassi/internal/sass"
)

// Type is a PTX value type.
type Type uint8

// Value types.
const (
	TInvalid Type = iota
	TU32          // .u32
	TS32          // .s32
	TF32          // .f32
	TU64          // .u64 (pointers)
	TPred         // .pred
)

var typeNames = [...]string{"invalid", "u32", "s32", "f32", "u64", "pred"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Value identifies a virtual register. The zero Value means "none".
type Value struct{ id int32 }

// Valid reports whether the value refers to a register.
func (v Value) Valid() bool { return v.id != 0 }

// ID returns the value's dense identifier (used by the register allocator).
func (v Value) ID() int32 { return v.id }

func (v Value) String() string {
	if !v.Valid() {
		return "_"
	}
	return fmt.Sprintf("%%v%d", v.id)
}

// Op is a PTX-level operation.
type Op uint8

// Operations.
const (
	OpNop     Op = iota
	OpMov        // dst = a (or Imm if a invalid)
	OpAdd        // dst = a + b
	OpSub        // dst = a - b
	OpMul        // dst = a * b (low 32 for ints)
	OpMad        // dst = a*b + c
	OpMin        // dst = min(a,b)
	OpMax        // dst = max(a,b)
	OpAnd        // dst = a & b
	OpOr         // dst = a | b
	OpXor        // dst = a ^ b
	OpNot        // dst = ^a
	OpShl        // dst = a << b
	OpShr        // dst = a >> b (type: arithmetic for S32)
	OpSetp       // dst(pred) = a cmp b
	OpPAnd       // dst(pred) = a && b
	OpPOr        // dst(pred) = a || b
	OpPNot       // dst(pred) = !a
	OpSel        // dst = c(pred) ? a : b
	OpCvt        // dst = convert(a) from SrcType to Type
	OpFma        // dst = a*b + c (float)
	OpMufu       // dst = special-function(a)
	OpSreg       // dst = special register
	OpLdParam    // dst = kernel parameter (Param name)
	OpLd         // dst = [a + Imm] in Space, Width bytes
	OpSt         // [a + Imm] = b in Space, Width bytes
	OpAtom       // dst(optional) = atomic(Atom) at [a + Imm] with b (and c for CAS)
	OpBar        // CTA barrier
	OpVote       // dst = ballot(a) / all / any per VoteMode
	OpShfl       // dst = shuffle of a from lane b
	OpBra        // branch to Label (guard makes it conditional)
	OpLabel      // label definition (no code)
	OpSSY        // push reconvergence point Label
	OpSync       // pop divergence stack
	OpExit       // thread exit
	OpTrap       // force a memory fault (device-side assert failure)
)

var opNames = [...]string{
	"nop", "mov", "add", "sub", "mul", "mad", "min", "max", "and", "or",
	"xor", "not", "shl", "shr", "setp", "pand", "por", "pnot", "sel", "cvt",
	"fma", "mufu", "sreg", "ldparam", "ld", "st", "atom", "bar", "vote",
	"shfl", "bra", "label", "ssy", "sync", "exit", "trap",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Space is a PTX state space for memory operations.
type Space uint8

// Memory spaces for Ld/St.
const (
	SpGeneric Space = iota
	SpGlobal
	SpShared
	SpLocal
)

var spaceNames = [...]string{"generic", "global", "shared", "local"}

func (s Space) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// Instr is one PTX instruction.
type Instr struct {
	Op      Op
	Type    Type // result/operation type
	SrcType Type // for Cvt
	Dst     Value
	A, B, C Value
	Imm     int64 // immediate operand / address offset
	HasImm  bool  // B is the immediate rather than a register

	Cmp   sass.CmpOp
	Atom  sass.AtomOp
	Mufu  sass.MufuFunc
	Vote  sass.VoteMode
	SR    sass.SpecialReg
	Space Space
	Width int // bytes for Ld/St/Atom

	Label string // Bra/Label/SSY targets
	Param string // LdParam name

	Guard    Value // predicate guard; invalid = unconditional
	GuardNeg bool
}

func (in *Instr) String() string {
	s := ""
	if in.Guard.Valid() {
		n := ""
		if in.GuardNeg {
			n = "!"
		}
		s = fmt.Sprintf("@%s%s ", n, in.Guard)
	}
	s += in.Op.String()
	if in.Type != TInvalid {
		s += "." + in.Type.String()
	}
	if in.Label != "" {
		s += " " + in.Label
	}
	if in.Dst.Valid() {
		s += " " + in.Dst.String()
	}
	for _, v := range []Value{in.A, in.B, in.C} {
		if v.Valid() {
			s += ", " + v.String()
		}
	}
	if in.HasImm {
		s += fmt.Sprintf(", #%d", in.Imm)
	}
	return s
}

// Param is one kernel parameter declaration.
type Param struct {
	Name string
	Size int // 4 or 8 bytes
}

// Func is one PTX kernel.
type Func struct {
	Name        string
	Params      []Param
	Instrs      []Instr
	SharedBytes int

	// ReqBlock is an optional launch-shape declaration (cf. PTX
	// .reqntid): the CTA dimensions the kernel is written for. Zero
	// means unspecified. ptxas forwards it to sass.Kernel.BlockDim for
	// analyses that need tid bounds.
	ReqBlock [3]int

	types []Type // of value ID i at i-1
}

// NewFunc creates an empty kernel.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewValue allocates a fresh virtual register of type t.
func (f *Func) NewValue(t Type) Value {
	f.types = append(f.types, t)
	return Value{id: int32(len(f.types))}
}

// TypeOf returns a value's declared type.
func (f *Func) TypeOf(v Value) Type {
	if !v.Valid() || int(v.id) > len(f.types) {
		return TInvalid
	}
	return f.types[v.id-1]
}

// AddParam declares a kernel parameter.
func (f *Func) AddParam(name string, size int) {
	f.Params = append(f.Params, Param{Name: name, Size: size})
}

// AllocShared reserves bytes of CTA shared memory (16-byte aligned) and
// returns the byte offset.
func (f *Func) AllocShared(bytes int) int {
	off := (f.SharedBytes + 15) &^ 15
	f.SharedBytes = off + bytes
	return off
}

// Emit appends an instruction.
func (f *Func) Emit(in Instr) { f.Instrs = append(f.Instrs, in) }

// Verify checks a kernel against the PTX rule set: every instruction by
// check, every branch and SSY target defined exactly once, and an exit. It
// does not pair SSY with sync, and it does not judge whether a value is
// defined before it is read: ptxas refuses such a read from the liveness it
// computes for register allocation.
func (f *Func) Verify() error {
	labels := map[string]bool{}
	for i := range f.Instrs {
		if f.Instrs[i].Op == OpLabel {
			if labels[f.Instrs[i].Label] {
				return fmt.Errorf("%s: duplicate label %q", f.Name, f.Instrs[i].Label)
			}
			labels[f.Instrs[i].Label] = true
		}
	}
	sawExit := false
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if err := f.check(in); err != nil {
			return fmt.Errorf("%s@%d (%s): %w", f.Name, i, in, err)
		}
		switch in.Op {
		case OpBra, OpSSY:
			if !labels[in.Label] {
				return fmt.Errorf("%s@%d: undefined label %q", f.Name, i, in.Label)
			}
		case OpExit:
			sawExit = true
		}
	}
	if !sawExit {
		return fmt.Errorf("%s: missing exit", f.Name)
	}
	return nil
}

// is32 reports whether t is held in one 32-bit register.
func is32(t Type) bool { return t == TU32 || t == TS32 || t == TF32 }

// isInt32 reports whether t is a 32-bit integer type.
func isInt32(t Type) bool { return t == TU32 || t == TS32 }

// addrType is the type of an address into space: a 64-bit pointer into
// global or generic memory, a 32-bit offset into shared or local memory.
func addrType(space Space) Type {
	if space == SpShared || space == SpLocal {
		return TU32
	}
	return TU64
}

// check is the PTX operand rule set, the one place operand types are
// judged: Verify applies it to every instruction, the Builder to each one
// it emits and the parser to each line. Per Op it fixes the type each of
// Dst, A, B and C holds (TInvalid: the slot is empty) and the types ptxas
// lowers, so nothing it accepts reaches the backend mistyped. The
// destination's type must match exactly; a source of either 32-bit integer
// type stands for the other. It allocates only to report an error.
func (f *Func) check(in *Instr) error {
	t := in.Type
	var d, a, b, c Type // what Dst, A, B and C hold
	ok := true          // ptxas lowers in.Op at this type
	imm := false        // HasImm may replace the last source
	switch in.Op {
	case OpNop, OpLabel, OpBra, OpSSY, OpSync, OpExit, OpTrap, OpBar:
	case OpMov:
		d, a, imm = t, t, t != TPred
		ok = is32(t) || t == TU64 || t == TPred
		if in.SrcType != TInvalid { // a reinterpretation (AsU32, AsS32)
			a, ok = in.SrcType, is32(t) && is32(in.SrcType)
		}
	case OpAdd:
		d, a, b, imm = t, t, t, true
		ok = is32(t) || t == TU64
	case OpSub, OpMul, OpMin, OpMax:
		d, a, b, imm = t, t, t, true
		ok = is32(t)
	case OpAnd, OpOr, OpXor, OpShl, OpShr:
		d, a, b, imm = t, t, t, true
		ok = isInt32(t)
	case OpNot:
		d, a = t, t
		ok = isInt32(t)
	case OpMad, OpFma:
		d, a, b, c = t, t, t, t
		ok = is32(t) && (in.Op == OpMad || t == TF32)
	case OpSetp:
		d, a, b, imm = TPred, t, t, true
		ok = is32(t)
	case OpPAnd, OpPOr, OpPNot:
		d, a = t, t
		if in.Op != OpPNot {
			b = t
		}
		ok = t == TPred
	case OpSel:
		d, a, b, c = t, t, t, TPred
		ok = is32(t)
	case OpCvt:
		d, a = t, in.SrcType
		ok = isInt32(in.SrcType) && (t == TU64 || t == TF32) || t == TS32 && in.SrcType == TF32
	case OpMufu:
		d, a = t, t
		ok = t == TF32
	case OpSreg:
		d = t
		ok = t == TU32
	case OpLdParam:
		d = t
		size := 0
		for _, p := range f.Params {
			if p.Name == in.Param {
				size = p.Size
				break
			}
		}
		if size == 0 {
			return fmt.Errorf("unknown param %q", in.Param)
		}
		if !(size == 8 && t == TU64 || size == 4 && is32(t)) {
			return fmt.Errorf("%d-byte param %q loaded into %s", size, in.Param, t)
		}
	case OpLd, OpSt:
		a = addrType(in.Space)
		if in.Op == OpLd {
			d = t
		} else {
			b = t
		}
		w := 4
		if t == TU64 {
			w = 8
		}
		ok = (is32(t) || t == TU64) && (in.Width == w || in.Width == 1 && t == TU32) && in.Space <= SpLocal
	case OpAtom:
		a, b = addrType(in.Space), t
		if in.Dst.Valid() { // reduceDeadAtomics drops an unread result
			d = t
		}
		if in.Atom == sass.AtomCAS {
			c = t
		}
		ok = isInt32(t) && in.Width == 4 && in.Space < SpLocal
	case OpVote:
		d, a = t, TPred
		ok = in.Vote == sass.VoteBALLOT && t == TU32 || (in.Vote == sass.VoteALL || in.Vote == sass.VoteANY) && t == TPred
	case OpShfl:
		d, a, b, imm = t, t, TU32, true
		ok = is32(t)
	default:
		return fmt.Errorf("unknown op %s", in.Op)
	}
	switch {
	case in.Op == OpCvt && !ok:
		return fmt.Errorf("cvt.%s.%s is not implemented", t, in.SrcType)
	case (in.Op == OpLd || in.Op == OpSt || in.Op == OpAtom) && !ok:
		return fmt.Errorf("%s.%s.%s of %d bytes is not implemented", in.Op, in.Space, t, in.Width)
	case !ok:
		return fmt.Errorf("%s.%s is not implemented", in.Op, t)
	case in.HasImm && !imm:
		return fmt.Errorf("%s.%s takes no immediate", in.Op, t)
	case in.HasImm && in.Op == OpMov:
		a = TInvalid
	case in.HasImm:
		b = TInvalid
	}
	if in.Guard.Valid() && f.TypeOf(in.Guard) != TPred {
		return fmt.Errorf("guard %s is not a predicate", in.Guard)
	}
	for _, s := range [...]struct {
		name string
		v    Value
		want Type
	}{{"destination", in.Dst, d}, {"operand a", in.A, a}, {"operand b", in.B, b}, {"operand c", in.C, c}} {
		got := f.TypeOf(s.v)
		switch {
		case s.want == TInvalid && s.v.Valid():
			return fmt.Errorf("%s takes no %s", in.Op, s.name)
		case s.want == TInvalid:
		case !s.v.Valid():
			return fmt.Errorf("%s needs %s", in.Op, s.name)
		case got != s.want && (s.name == "destination" || !isInt32(got) || !isInt32(s.want)):
			return fmt.Errorf("%s is %s, not %s (%s)", s.name, got, s.want, s.v)
		}
	}
	return nil
}

// Dump renders the function as text (debugging aid).
func (f *Func) Dump() string {
	s := fmt.Sprintf(".entry %s\n", f.Name)
	for _, p := range f.Params {
		s += fmt.Sprintf(".param %s %d\n", p.Name, p.Size)
	}
	for i := range f.Instrs {
		if f.Instrs[i].Op == OpLabel {
			s += f.Instrs[i].Label + ":\n"
			continue
		}
		s += "    " + f.Instrs[i].String() + "\n"
	}
	return s
}

// Module is a set of PTX kernels compiled together.
type Module struct {
	Funcs []*Func
}

// NewModule returns an empty module.
func NewModule() *Module { return &Module{} }

// Add appends a kernel to the module.
func (m *Module) Add(f *Func) { m.Funcs = append(m.Funcs, f) }

// Verify checks every kernel.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return err
		}
	}
	return nil
}
