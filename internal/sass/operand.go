package sass

import "fmt"

// Register numbers. GPRs are 32 bits wide; 64-bit quantities occupy an
// aligned even/odd register pair, as on real hardware.
const (
	// RZ is the always-zero register. Writes to RZ are discarded.
	RZ = 255
	// NumGPR is the number of allocatable general purpose registers.
	NumGPR = 255
	// PT is the always-true predicate register. Writes to PT are discarded.
	PT = 7
	// NumPred is the number of allocatable predicate registers.
	NumPred = 7
	// SP is the register holding the per-thread stack pointer by ABI
	// convention (matches the paper's use of R1 in Figure 2).
	SP = 1
	// JCALArg0 and JCALArg1 start the register pairs a JCAL passes its
	// handler's two 64-bit arguments in, (R4,R5) and (R6,R7), by the same
	// convention (Figure 2): a JCAL reads R4..R7.
	JCALArg0 = 4
	JCALArg1 = 6
)

// OperandKind discriminates Operand variants.
type OperandKind uint8

// Operand kinds.
const (
	OpdNone  OperandKind = iota
	OpdReg               // GPR Rn
	OpdPred              // predicate register Pn
	OpdImm               // 32-bit immediate (integer or float bits)
	OpdCMem              // constant memory c[bank][offset]
	OpdMem               // memory reference [Rn + offset]
	OpdSReg              // special register (S2R source)
	OpdLabel             // branch/call target, resolved to an instruction index
	OpdSym               // external symbol (JCAL target), resolved at link time
)

// Operand is a single instruction operand. The zero value is OpdNone. The
// one-byte fields come first so the struct packs into 32 bytes: an
// instrumented kernel holds millions of these.
type Operand struct {
	Kind OperandKind
	Reg  uint8      // OpdReg: register number; OpdPred: predicate number; OpdMem: base register
	Neg  bool       // OpdPred source: negated (@!Pn or !Pn)
	Bank uint8      // OpdCMem: constant bank
	SR   SpecialReg // OpdSReg
	Imm  int64      // OpdImm: value; OpdMem/OpdCMem: byte offset; OpdLabel: resolved index
	Name string     // OpdLabel/OpdSym: symbolic name
}

// Convenience constructors.

// R returns a GPR operand.
func R(n uint8) Operand { return Operand{Kind: OpdReg, Reg: n} }

// P returns a predicate register operand.
func P(n uint8) Operand { return Operand{Kind: OpdPred, Reg: n} }

// NotP returns a negated predicate register operand.
func NotP(n uint8) Operand { return Operand{Kind: OpdPred, Reg: n, Neg: true} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OpdImm, Imm: v} }

// CMem returns a constant-memory operand c[bank][offset].
func CMem(bank uint8, offset int64) Operand {
	return Operand{Kind: OpdCMem, Bank: bank, Imm: offset}
}

// Mem returns a memory-reference operand [Rbase+offset].
func Mem(base uint8, offset int64) Operand {
	return Operand{Kind: OpdMem, Reg: base, Imm: offset}
}

// SR returns a special-register operand.
func SReg(sr SpecialReg) Operand { return Operand{Kind: OpdSReg, SR: sr} }

// Label returns an unresolved label operand.
func Label(name string) Operand { return Operand{Kind: OpdLabel, Name: name, Imm: -1} }

// Sym returns an external symbol operand (JCAL target).
func Sym(name string) Operand { return Operand{Kind: OpdSym, Name: name} }

// String formats the operand in SASS syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpdNone:
		return "<none>"
	case OpdReg:
		if o.Reg == RZ {
			return "RZ"
		}
		return fmt.Sprintf("R%d", o.Reg)
	case OpdPred:
		s := ""
		if o.Neg {
			s = "!"
		}
		if o.Reg == PT {
			return s + "PT"
		}
		return fmt.Sprintf("%sP%d", s, o.Reg)
	case OpdImm:
		if o.Imm < 0 {
			return fmt.Sprintf("-0x%x", -o.Imm)
		}
		return fmt.Sprintf("0x%x", o.Imm)
	case OpdCMem:
		return fmt.Sprintf("c[0x%x][0x%x]", o.Bank, o.Imm)
	case OpdMem:
		if o.Imm == 0 {
			if o.Reg == RZ {
				return "[RZ]"
			}
			return fmt.Sprintf("[R%d]", o.Reg)
		}
		base := "RZ"
		if o.Reg != RZ {
			base = fmt.Sprintf("R%d", o.Reg)
		}
		if o.Imm < 0 {
			return fmt.Sprintf("[%s-0x%x]", base, -o.Imm)
		}
		return fmt.Sprintf("[%s+0x%x]", base, o.Imm)
	case OpdSReg:
		return o.SR.String()
	case OpdLabel:
		if o.Name != "" {
			return o.Name
		}
		return fmt.Sprintf("@%d", o.Imm)
	case OpdSym:
		return o.Name
	}
	return "<bad>"
}
