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

	nextID int32
	types  map[int32]Type
}

// NewFunc creates an empty kernel.
func NewFunc(name string) *Func {
	return &Func{Name: name, types: make(map[int32]Type)}
}

// NewValue allocates a fresh virtual register of type t.
func (f *Func) NewValue(t Type) Value {
	f.nextID++
	v := Value{id: f.nextID}
	f.types[v.id] = t
	return v
}

// TypeOf returns a value's declared type.
func (f *Func) TypeOf(v Value) Type {
	if !v.Valid() {
		return TInvalid
	}
	return f.types[v.id]
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

// Verify checks structural invariants: types of operands, labels defined,
// exactly matched SSY/Sync use, and terminating Exit.
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
		switch in.Op {
		case OpBra, OpSSY:
			if !labels[in.Label] {
				return fmt.Errorf("%s@%d: undefined label %q", f.Name, i, in.Label)
			}
		case OpExit:
			sawExit = true
		case OpLdParam:
			found := false
			for _, p := range f.Params {
				if p.Name == in.Param {
					found = true
					if p.Size == 8 && f.TypeOf(in.Dst) != TU64 {
						return fmt.Errorf("%s@%d: 8-byte param %q loaded into %s", f.Name, i, in.Param, f.TypeOf(in.Dst))
					}
				}
			}
			if !found {
				return fmt.Errorf("%s@%d: unknown param %q", f.Name, i, in.Param)
			}
		}
		if in.Guard.Valid() && f.TypeOf(in.Guard) != TPred {
			return fmt.Errorf("%s@%d: guard %s is not a predicate", f.Name, i, in.Guard)
		}
	}
	if !sawExit {
		return fmt.Errorf("%s: missing exit", f.Name)
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
