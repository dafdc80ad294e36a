package sass

import (
	"fmt"
	"strings"
)

// Width is the data width of a memory operation or arithmetic op in bytes.
type Width uint8

// Data widths.
const (
	W32  Width = 4 // default
	W8   Width = 1
	W16  Width = 2
	W64  Width = 8
	W128 Width = 16
)

// Bytes returns the width in bytes, defaulting to 4 for the zero value.
func (w Width) Bytes() int {
	if w == 0 {
		return 4
	}
	return int(w)
}

// Regs returns how many consecutive 32-bit registers the width occupies.
func (w Width) Regs() int {
	n := w.Bytes() / 4
	if n < 1 {
		n = 1
	}
	return n
}

func (w Width) suffix() string {
	switch w {
	case W8:
		return ".8"
	case W16:
		return ".16"
	case W64:
		return ".64"
	case W128:
		return ".128"
	}
	return ""
}

// Mods carries opcode-specific modifiers. Only the fields relevant to the
// instruction's opcode are meaningful.
type Mods struct {
	Width    Width    // LD/ST family data width
	Cmp      CmpOp    // ISETP/FSETP comparison
	Logic    LogicOp  // LOP operation; SETP combine function
	Atom     AtomOp   // ATOM/ATOMS/RED operation
	Mufu     MufuFunc // MUFU function
	Vote     VoteMode // VOTE mode
	Shfl     ShflMode // SHFL mode
	Unsigned bool     // .U32 on compares/shifts/min-max
	SetCC    bool     // .CC: update condition code with the result
	X        bool     // .X: extended arithmetic (use carry from CC)
	E        bool     // .E: extended (64-bit) address on memory ops
	NegB     bool     // second source negated (IADD subtraction form)
}

// PredGuard is the @[!]Pn guard controlling per-thread execution.
// The zero value (PT, not negated) means "always execute".
type PredGuard struct {
	Reg uint8 // predicate register; PT means unconditional
	Neg bool
}

// Always is the unconditional predicate guard.
var Always = PredGuard{Reg: PT}

// IsAlways reports whether the guard always passes.
func (p PredGuard) IsAlways() bool { return p.Reg == PT && !p.Neg }

func (p PredGuard) String() string {
	if p.IsAlways() {
		return ""
	}
	neg := ""
	if p.Neg {
		neg = "!"
	}
	if p.Reg == PT {
		return fmt.Sprintf("@%sPT ", neg)
	}
	return fmt.Sprintf("@%sP%d ", neg, p.Reg)
}

// Instruction is a single decoded SASS instruction.
//
// Dsts lists destination operands (registers and predicate registers) in a
// fixed per-opcode order; Srcs lists source operands. Memory references and
// immediate operands appear in Srcs even for stores (the address expression
// is a source).
type Instruction struct {
	Guard PredGuard
	Op    Opcode
	// Injected marks instructions inserted by the SASSI instrumentor so
	// that profiling of "original" code can distinguish them. (It sits with
	// the other one-byte fields so the struct packs into 80 bytes.)
	Injected bool
	Mods     Mods
	Dsts     []Operand
	Srcs     []Operand

	// Comment is carried through assembly/disassembly for readability.
	Comment string
}

// Clone returns a deep copy of the instruction.
func (in *Instruction) Clone() Instruction {
	out := *in
	out.Dsts = append([]Operand(nil), in.Dsts...)
	out.Srcs = append([]Operand(nil), in.Srcs...)
	return out
}

// New builds an instruction with the unconditional guard.
func New(op Opcode, dsts []Operand, srcs []Operand) Instruction {
	return Instruction{Guard: Always, Op: op, Dsts: dsts, Srcs: srcs}
}

// WithGuard returns a copy of the instruction with the given guard.
func (in Instruction) WithGuard(g PredGuard) Instruction {
	in.Guard = g
	return in
}

// IsCondBranch reports whether the instruction is a conditional control
// transfer (a predicated BRA), the instrumentation target of Case Study I.
func (in *Instruction) IsCondBranch() bool {
	return in.Op == OpBRA && !in.Guard.IsAlways()
}

// BranchTarget returns the label operand of a control transfer, if any.
func (in *Instruction) BranchTarget() (Operand, bool) {
	if len(in.Srcs) == 0 {
		return Operand{}, false
	}
	for _, s := range in.Srcs {
		if s.Kind == OpdLabel || s.Kind == OpdSym {
			return s, true
		}
	}
	return Operand{}, false
}

// GPRDsts returns the general purpose registers written by the instruction,
// expanding multi-register (64/128-bit) destinations.
func (in *Instruction) GPRDsts() []uint8 { return in.AppendGPRDsts(nil) }

// AppendGPRDsts appends the written GPRs to buf and returns it. Passing a
// caller-owned buffer (buf[:0] over a fixed array) keeps hot paths like
// the simulator's scoreboard allocation-free.
func (in *Instruction) AppendGPRDsts(buf []uint8) []uint8 {
	for _, d := range in.Dsts {
		if d.Kind != OpdReg || d.Reg == RZ {
			continue
		}
		n := 1
		if in.Op.IsMem() && in.Op.IsMemRead() {
			n = in.Mods.Width.Regs()
		} else if in.Mods.Width == W64 {
			n = 2
		}
		for i := 0; i < n; i++ {
			buf = append(buf, d.Reg+uint8(i))
		}
	}
	return buf
}

// GPRSrcs returns the general purpose registers read by the instruction,
// including address base registers and store data (with width expansion).
func (in *Instruction) GPRSrcs() []uint8 { return in.AppendGPRSrcs(nil) }

// AppendGPRSrcs appends the read GPRs to buf and returns it (see
// AppendGPRDsts for the buffer discipline).
func (in *Instruction) AppendGPRSrcs(buf []uint8) []uint8 {
	add := func(r uint8, n int) {
		if r == RZ {
			return
		}
		for i := 0; i < n; i++ {
			buf = append(buf, r+uint8(i))
		}
	}
	for i, s := range in.Srcs {
		switch s.Kind {
		case OpdReg:
			n := 1
			// Store data operand is widened with the access width.
			if in.Op.IsMemWrite() && i > 0 {
				n = in.Mods.Width.Regs()
			}
			add(s.Reg, n)
		case OpdMem:
			n := 1
			if in.Mods.E {
				n = 2 // 64-bit address in a register pair
			}
			add(s.Reg, n)
		}
	}
	return buf
}

// PredDsts returns predicate registers written by the instruction.
func (in *Instruction) PredDsts() []uint8 { return in.AppendPredDsts(nil) }

// AppendPredDsts appends the written predicate registers to buf and returns
// it (see AppendGPRDsts for the buffer discipline).
func (in *Instruction) AppendPredDsts(buf []uint8) []uint8 {
	for _, d := range in.Dsts {
		if d.Kind == OpdPred && d.Reg != PT {
			buf = append(buf, d.Reg)
		}
	}
	return buf
}

// PredSrcs returns predicate registers read by the instruction, including
// the guard.
func (in *Instruction) PredSrcs() []uint8 { return in.AppendPredSrcs(nil) }

// AppendPredSrcs appends the read predicate registers, guard first, to buf
// and returns it (see AppendGPRDsts for the buffer discipline).
func (in *Instruction) AppendPredSrcs(buf []uint8) []uint8 {
	if !in.Guard.IsAlways() && in.Guard.Reg != PT {
		buf = append(buf, in.Guard.Reg)
	}
	for _, s := range in.Srcs {
		if s.Kind == OpdPred && s.Reg != PT {
			buf = append(buf, s.Reg)
		}
	}
	return buf
}

// WritesGPR reports whether the instruction writes any GPR.
func (in *Instruction) WritesGPR() bool {
	for _, d := range in.Dsts {
		if d.Kind == OpdReg && d.Reg != RZ {
			return true
		}
	}
	return false
}

// WritesPred reports whether the instruction writes any predicate register.
func (in *Instruction) WritesPred() bool {
	for _, d := range in.Dsts {
		if d.Kind == OpdPred && d.Reg != PT {
			return true
		}
	}
	return false
}

// WritesCC reports whether the instruction updates the condition code.
func (in *Instruction) WritesCC() bool { return in.Mods.SetCC }

// modString renders the dotted modifier list for the mnemonic.
func (in *Instruction) modString() string {
	var b strings.Builder
	switch in.Op {
	case OpISETP, OpFSETP:
		b.WriteByte('.')
		b.WriteString(in.Mods.Cmp.String())
		if in.Mods.Unsigned {
			b.WriteString(".U32")
		}
		b.WriteByte('.')
		b.WriteString(in.Mods.Logic.String())
	case OpLOP:
		b.WriteByte('.')
		b.WriteString(in.Mods.Logic.String())
	case OpATOM, OpATOMS, OpRED:
		b.WriteByte('.')
		b.WriteString(in.Mods.Atom.String())
		b.WriteString(in.Mods.Width.suffix())
	case OpMUFU:
		b.WriteByte('.')
		b.WriteString(in.Mods.Mufu.String())
	case OpVOTE:
		b.WriteByte('.')
		b.WriteString(in.Mods.Vote.String())
	case OpSHFL:
		b.WriteByte('.')
		b.WriteString(in.Mods.Shfl.String())
	case OpLD, OpST, OpLDG, OpSTG, OpLDL, OpSTL, OpLDS, OpSTS, OpLDC:
		if in.Mods.E {
			b.WriteString(".E")
		}
		b.WriteString(in.Mods.Width.suffix())
	case OpSHR, OpIMNMX:
		if in.Mods.Unsigned {
			b.WriteString(".U32")
		}
	case OpBAR:
		b.WriteString(".SYNC")
	}
	if in.Mods.SetCC {
		b.WriteString(".CC")
	}
	if in.Mods.X {
		b.WriteString(".X")
	}
	if in.Mods.NegB {
		b.WriteString(".NEGB")
	}
	return b.String()
}

// String renders the instruction in SASS-like syntax, e.g.
// "@P0 IADD R4, RZ, 0x1 ;".
func (in *Instruction) String() string {
	var b strings.Builder
	b.WriteString(in.Guard.String())
	b.WriteString(in.Op.String())
	b.WriteString(in.modString())
	opds := make([]string, 0, len(in.Dsts)+len(in.Srcs))
	for _, d := range in.Dsts {
		opds = append(opds, d.String())
	}
	for _, s := range in.Srcs {
		opds = append(opds, s.String())
	}
	if len(opds) > 0 {
		b.WriteByte(' ')
		b.WriteString(strings.Join(opds, ", "))
	}
	b.WriteString(" ;")
	if in.Comment != "" {
		b.WriteString(" // ")
		b.WriteString(in.Comment)
	}
	return b.String()
}
