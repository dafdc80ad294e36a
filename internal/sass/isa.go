// Package sass defines a SASS-like native GPU instruction set: the machine
// ISA produced by the backend compiler (internal/ptxas), consumed by the
// SIMT simulator (internal/sim), and instrumented by SASSI (internal/sassi).
//
// The ISA is modeled on NVIDIA's Kepler-generation SASS as described in the
// ISCA'15 SASSI paper: 32-bit general purpose registers R0..R254 plus the
// always-zero RZ, seven predicate registers P0..P6 plus the always-true PT,
// a 4-bit condition code, per-instruction predication, a divergence stack
// driven by SSY/SYNC, separate local/shared/global memory spaces reachable
// through a generic address window, and warp-wide collectives (VOTE, SHFL).
package sass

import "fmt"

// Opcode identifies a SASS instruction operation.
type Opcode uint8

// The instruction set. Groupings mirror Kepler SASS families.
const (
	OpNOP Opcode = iota

	// Integer arithmetic and logic.
	OpIADD   // IADD Rd, Ra, Rb|imm|c[][]        (.CC sets condition code, .X adds carry)
	OpIADD32 // IADD32I Rd, Ra, imm32
	OpIMUL   // IMUL Rd, Ra, Rb|imm
	OpIMAD   // IMAD Rd, Ra, Rb, Rc              (Rd = Ra*Rb + Rc)
	OpISCADD // ISCADD Rd, Ra, Rb, shift         (Rd = (Ra<<shift) + Rb)
	OpISETP  // ISETP.cmp.and Pd, Pq, Ra, Rb, Pc (integer compare, sets predicate pair)
	OpIMNMX  // IMNMX Rd, Ra, Rb, Pc             (min if Pc, max if !Pc)
	OpLOP    // LOP.op Rd, Ra, Rb|imm            (AND/OR/XOR/PASSB/NOT)
	OpSHL    // SHL Rd, Ra, Rb|imm
	OpSHR    // SHR Rd, Ra, Rb|imm               (.U32 logical, signed otherwise)
	OpBFE    // BFE Rd, Ra, Rb                   (bit field extract, pos|len<<8)
	OpBFI    // BFI Rd, Ra, Rb, Rc               (bit field insert)
	OpFLO    // FLO Rd, Ra                       (find leading one)
	OpPOPC   // POPC Rd, Ra                      (population count)
	OpSEL    // SEL Rd, Ra, Rb, Pc               (Rd = Pc ? Ra : Rb)
	OpMOV    // MOV Rd, Ra|c[][]
	OpMOV32  // MOV32I Rd, imm32
	OpS2R    // S2R Rd, SR                       (read special register)
	OpP2R    // P2R Rd, PR, Ra, mask             (predicates -> register)
	OpR2P    // R2P PR, Ra, mask                 (register -> predicates)
	OpPSETP  // PSETP.and.and Pd, Pq, Pa, Pb, Pc (predicate logic)

	// Floating point (32-bit unless .64 modifier).
	OpFADD  // FADD Rd, Ra, Rb
	OpFMUL  // FMUL Rd, Ra, Rb
	OpFFMA  // FFMA Rd, Ra, Rb, Rc
	OpFSETP // FSETP.cmp.and Pd, Pq, Ra, Rb, Pc
	OpFMNMX // FMNMX Rd, Ra, Rb, Pc
	OpMUFU  // MUFU.func Rd, Ra                  (rcp, rsq, sqrt, sin, cos, ex2, lg2)
	OpF2I   // F2I Rd, Ra
	OpI2F   // I2F Rd, Ra
	OpF2F   // F2F Rd, Ra                        (used for ftz/round; functional no-op here)

	// Memory. Generic LD/ST decode their space from the address window.
	OpLD    // LD.width Rd, [Ra+ofs]             (generic load)
	OpST    // ST.width [Ra+ofs], Rb             (generic store)
	OpLDG   // LDG.width Rd, [Ra+ofs]            (global load)
	OpSTG   // STG.width [Ra+ofs], Rb            (global store)
	OpLDL   // LDL.width Rd, [Ra+ofs]            (local: spills, stack)
	OpSTL   // STL.width [Ra+ofs], Rb
	OpLDS   // LDS.width Rd, [Ra+ofs]            (shared)
	OpSTS   // STS.width [Ra+ofs], Rb
	OpLDC   // LDC Rd, c[bank][Ra+ofs]           (constant load)
	OpATOM  // ATOM.op Rd, [Ra+ofs], Rb (, Rc for CAS)  (global atomic)
	OpATOMS // ATOMS.op Rd, [Ra+ofs], Rb         (shared atomic)
	OpRED   // RED.op [Ra+ofs], Rb               (reduction, no return)
	OpTLD   // TLD Rd, Ra (texture load stub; flagged texture for classification)

	// Control flow.
	OpBRA  // BRA target                         (predicated => conditional branch)
	OpSSY  // SSY target                         (push reconvergence point)
	OpSYNC // SYNC                               (pop divergence stack / reconverge)
	// 47 and 48 are reserved: they were a break-stack pair that nothing
	// emitted and no backend ran. They stay undefined, so that every other
	// opcode keeps the number committed encodings carry.
	_
	_
	OpCAL  // CAL target                         (call, pushes return PC)
	OpJCAL // JCAL sym                           (call linked symbol; SASSI handlers)
	OpRET  // RET
	OpEXIT // EXIT                               (thread terminates)
	OpBAR  // BAR.SYNC                           (CTA-wide barrier)

	// Warp collectives.
	OpVOTE // VOTE.mode Rd|Pd, Pa                (ALL/ANY/BALLOT over active threads)
	OpSHFL // SHFL.mode Pd, Rd, Ra, Rb, Rc       (intra-warp shuffle)

	opCount
)

var opNames = [...]string{
	OpNOP:  "NOP",
	OpIADD: "IADD", OpIADD32: "IADD32I", OpIMUL: "IMUL", OpIMAD: "IMAD",
	OpISCADD: "ISCADD", OpISETP: "ISETP", OpIMNMX: "IMNMX", OpLOP: "LOP",
	OpSHL: "SHL", OpSHR: "SHR", OpBFE: "BFE", OpBFI: "BFI", OpFLO: "FLO",
	OpPOPC: "POPC", OpSEL: "SEL", OpMOV: "MOV", OpMOV32: "MOV32I",
	OpS2R: "S2R", OpP2R: "P2R", OpR2P: "R2P", OpPSETP: "PSETP",
	OpFADD: "FADD", OpFMUL: "FMUL", OpFFMA: "FFMA", OpFSETP: "FSETP",
	OpFMNMX: "FMNMX", OpMUFU: "MUFU", OpF2I: "F2I", OpI2F: "I2F", OpF2F: "F2F",
	OpLD: "LD", OpST: "ST", OpLDG: "LDG", OpSTG: "STG", OpLDL: "LDL",
	OpSTL: "STL", OpLDS: "LDS", OpSTS: "STS", OpLDC: "LDC",
	OpATOM: "ATOM", OpATOMS: "ATOMS", OpRED: "RED", OpTLD: "TLD",
	OpBRA: "BRA", OpSSY: "SSY", OpSYNC: "SYNC",
	OpCAL: "CAL", OpJCAL: "JCAL", OpRET: "RET", OpEXIT: "EXIT", OpBAR: "BAR",
	OpVOTE: "VOTE", OpSHFL: "SHFL",
}

// operandKinds lists, per opcode, how the simulator reads each operand
// position that every form of the opcode has (the forms in the opcode
// comments above): 'r' the operand's register field as a GPR, 'p' as a
// predicate, 'v' the operand as a 32-bit value of its own kind, '.' not by
// position (memory references and branch targets are found by kind). VOTE's
// destination, 'd', is a GPR for BALLOT and a predicate otherwise. Optional
// trailing operands — a SETP's complement destination and combine
// predicate, the min/max selector, CAS's swap value, an atomic's
// destination, SHFL's clamp — are read only when they have the kind the
// form gives them, and are not listed.
var operandKinds = [opCount]struct{ dsts, srcs string }{
	OpIADD: {"r", "vv"}, OpIADD32: {"r", "vv"}, OpIMUL: {"r", "vv"}, OpIMAD: {"r", "vvv"},
	OpISCADD: {"r", "vvv"}, OpISETP: {"p", "vv"}, OpIMNMX: {"r", "vv"}, OpLOP: {"r", "vv"},
	OpSHL: {"r", "vv"}, OpSHR: {"r", "vv"}, OpBFE: {"r", "vv"}, OpBFI: {"r", "vvv"},
	OpFLO: {"r", "v"}, OpPOPC: {"r", "v"}, OpSEL: {"r", "vvp"}, OpMOV: {"r", "v"},
	OpMOV32: {"r", "v"}, OpS2R: {"r", "."}, OpP2R: {"r", "vv"}, OpR2P: {"", "vv"},
	OpPSETP: {"p", "pp"}, OpFADD: {"r", "vv"}, OpFMUL: {"r", "vv"}, OpFFMA: {"r", "vvv"},
	OpFSETP: {"p", "vv"}, OpFMNMX: {"r", "vv"}, OpMUFU: {"r", "v"}, OpF2I: {"r", "v"},
	OpI2F: {"r", "v"}, OpF2F: {"r", "v"},
	OpLD: {"r", "."}, OpST: {"", ".."}, OpLDG: {"r", "."}, OpSTG: {"", ".."},
	OpLDL: {"r", "."}, OpSTL: {"", ".."}, OpLDS: {"r", "."}, OpSTS: {"", ".."},
	OpLDC: {"r", "."}, OpATOM: {"", ".."}, OpATOMS: {"", ".."}, OpRED: {"", ".."},
	OpTLD: {"r", "."},
	OpBRA: {"", "."}, OpSSY: {"", "."}, OpCAL: {"", "."}, OpJCAL: {"", "."},
	OpVOTE: {"d", "p"}, OpSHFL: {"pr", "vv"},
}

// Defined reports whether o is an opcode of the ISA: one with a name, so
// neither a reserved number nor one past the table.
func (o Opcode) Defined() bool { return int(o) < len(opNames) && opNames[o] != "" }

// MinOperands returns the fewest destination and source operands every
// form of the opcode has; o must be below NumOpcodes.
func (o Opcode) MinOperands() (dsts, srcs int) {
	k := operandKinds[o]
	return len(k.dsts), len(k.srcs)
}

// CheckInstr is the one operand rule set: Verify's structural check, the
// compiler's output check and the launch all judge instruction i of k by
// it, so a kernel the verifier accepts is one the simulator runs. It
// reports the first of: an opcode that is not Defined; a guard past PT;
// fewer operands than every form of the opcode has; an undefined width;
// and, in each destination and then each source, a register or predicate
// at a position read as a predicate that names none (a register there is
// read as the predicate of its number, so RZ or R8 and above name none),
// an operand missing, a predicate past PT, a label outside
// [0, len(k.Instrs)], an undefined operand kind or a register group or
// .E address pair that runs past the register file. On an instruction it
// accepts, gprs is one past the highest GPR the instruction names, groups
// and pairs counted whole (gprSpan), or 0 when it names none: the figure
// Verify bounds by the kernel's NumRegs and the launch by the registers it
// gives every thread, NumRegs but at least MinRegs.
func (k *Kernel) CheckInstr(i int) (gprs int, err error) {
	in := &k.Instrs[i]
	if !in.Op.Defined() {
		return 0, fmt.Errorf("undefined opcode %d", in.Op)
	}
	if in.Guard.Reg > PT {
		return 0, fmt.Errorf("guard references undefined predicate P%d", in.Guard.Reg)
	}
	kinds := operandKinds[in.Op]
	if len(in.Dsts) < len(kinds.dsts) {
		return 0, fmt.Errorf("%s has %d destination operands, needs %d", in.Op, len(in.Dsts), len(kinds.dsts))
	}
	if len(in.Srcs) < len(kinds.srcs) {
		return 0, fmt.Errorf("%s has %d source operands, needs %d", in.Op, len(in.Srcs), len(kinds.srcs))
	}
	switch in.Mods.Width {
	case 0, W8, W16, W32, W64, W128:
	default:
		return 0, fmt.Errorf("undefined width modifier %d", in.Mods.Width)
	}
	for j := range in.Dsts {
		end, err := k.checkOperand(in, &in.Dsts[j], true, j, kinds.dsts)
		if err != nil {
			return 0, err
		}
		gprs = max(gprs, end)
	}
	for j := range in.Srcs {
		end, err := k.checkOperand(in, &in.Srcs[j], false, j, kinds.srcs)
		if err != nil {
			return 0, err
		}
		gprs = max(gprs, end)
	}
	return gprs, nil
}

// checkOperand checks o, in's j-th destination (dst) or source, whose
// position the opcode reads as kinds[j] (operandKinds), and returns one
// past the last GPR it names, 0 when it names none.
func (k *Kernel) checkOperand(in *Instruction, o *Operand, dst bool, j int, kinds string) (end int, err error) {
	kind := byte('.')
	if j < len(kinds) {
		kind = kinds[j]
	}
	if kind == 'd' {
		kind = 'p'
		if in.Mods.Vote == VoteBALLOT {
			kind = 'r'
		}
	}
	if kind == 'p' && o.Reg > PT {
		what := "source"
		if dst {
			what = "destination"
		}
		return 0, fmt.Errorf("%s %s %d (%s) is read as a predicate and names none", in.Op, what, j, *o)
	}
	switch o.Kind {
	case OpdNone:
		if !dst {
			j += len(in.Dsts) // operands are numbered across both lists
		}
		return 0, fmt.Errorf("operand %d is missing", j)
	case OpdPred:
		if o.Reg > PT {
			return 0, fmt.Errorf("undefined predicate P%d", o.Reg)
		}
	case OpdLabel:
		if o.Imm < 0 {
			return 0, fmt.Errorf("label %q is unresolved", o.Name)
		}
		if n := len(k.Instrs); o.Imm > int64(n) {
			return 0, fmt.Errorf("label %q (%d) is past the kernel end (%d instructions)", o.Name, o.Imm, n)
		}
	case OpdReg, OpdMem:
		// Every uint8 names a register (R0..R254, or RZ), but a group or
		// a pair must not run off the file.
		if n := in.gprSpan(o, dst, j); n > 0 {
			if end = int(o.Reg) + n; end > NumGPR {
				return 0, fmt.Errorf("R%d..R%d runs past the register file", o.Reg, end-1)
			}
		}
	case OpdImm, OpdCMem, OpdSReg, OpdSym:
		// Always well-formed as encoded.
	default:
		return 0, fmt.Errorf("undefined operand kind %d", o.Kind)
	}
	return end, nil
}

// String returns the SASS mnemonic for the opcode.
func (o Opcode) String() string {
	if o.Defined() {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// NumOpcodes reports one past the highest opcode number, for table sizing
// and for walking every number; the reserved ones are not Defined.
func NumOpcodes() int { return int(opCount) }

// Instruction classification, mirroring the SASSIBeforeParams query methods
// of the paper (IsMem, IsControlXfer, IsNumeric, ...).

// IsMem reports whether the opcode touches memory. This and the other
// IsMem* queries are views over the single memClasses table in
// memclass.go, so every consumer (instrumentation site selection, the
// memory-divergence profiler, the dependence analysis) classifies
// memory operations identically.
func (o Opcode) IsMem() bool { return IsMemoryOp(o) }

// IsMemRead reports whether the opcode reads memory.
func (o Opcode) IsMemRead() bool {
	return int(o) < len(memClasses) && memClasses[o].read
}

// IsMemWrite reports whether the opcode writes memory.
func (o Opcode) IsMemWrite() bool {
	return int(o) < len(memClasses) && memClasses[o].write
}

// IsAtomic reports whether the opcode is an atomic read-modify-write.
func (o Opcode) IsAtomic() bool {
	return int(o) < len(memClasses) && memClasses[o].atomic
}

// IsSpillOrFill reports whether the opcode accesses thread-local (stack)
// memory, which is where the compiler places register spills.
func (o Opcode) IsSpillOrFill() bool { return MemSpaceOf(o) == MemLocal }

// IsControlXfer reports whether the opcode may transfer control.
func (o Opcode) IsControlXfer() bool {
	switch o {
	case OpBRA, OpCAL, OpJCAL, OpRET, OpEXIT, OpSYNC:
		return true
	}
	return false
}

// IsCall reports whether the opcode is a call.
func (o Opcode) IsCall() bool { return o == OpCAL || o == OpJCAL }

// IsSync reports whether the opcode is a synchronization operation.
func (o Opcode) IsSync() bool { return o == OpBAR || o == OpSYNC || o == OpSSY }

// IsNumeric reports whether the opcode performs arithmetic.
func (o Opcode) IsNumeric() bool {
	switch o {
	case OpIADD, OpIADD32, OpIMUL, OpIMAD, OpISCADD, OpIMNMX, OpLOP, OpSHL,
		OpSHR, OpBFE, OpBFI, OpFLO, OpPOPC, OpSEL, OpFADD, OpFMUL, OpFFMA,
		OpFMNMX, OpMUFU, OpF2I, OpI2F, OpF2F:
		return true
	}
	return false
}

// IsTexture reports whether the opcode accesses texture memory.
func (o Opcode) IsTexture() bool {
	return int(o) < len(memClasses) && memClasses[o].texture
}

// CmpOp is a comparison operator used by ISETP/FSETP modifiers.
type CmpOp uint8

// Comparison operators.
const (
	CmpLT CmpOp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

var cmpNames = [...]string{"LT", "LE", "GT", "GE", "EQ", "NE"}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("CMP(%d)", uint8(c))
}

// CmpByName resolves a comparison mnemonic.
func CmpByName(s string) (CmpOp, bool) {
	for i, n := range cmpNames {
		if n == s {
			return CmpOp(i), true
		}
	}
	return 0, false
}

// LogicOp is a boolean operator used by LOP and the SETP combine stage.
type LogicOp uint8

// Logic operators.
const (
	LogicAND LogicOp = iota
	LogicOR
	LogicXOR
	LogicPASS // pass second operand through (LOP.PASS_B)
	LogicNOT  // bitwise complement of second operand
)

var logicNames = [...]string{"AND", "OR", "XOR", "PASS_B", "NOT"}

func (l LogicOp) String() string {
	if int(l) < len(logicNames) {
		return logicNames[l]
	}
	return fmt.Sprintf("LOGIC(%d)", uint8(l))
}

// AtomOp selects the read-modify-write function of ATOM/ATOMS/RED.
type AtomOp uint8

// Atomic operators.
const (
	AtomADD AtomOp = iota
	AtomMIN
	AtomMAX
	AtomAND
	AtomOR
	AtomXOR
	AtomEXCH
	AtomCAS
)

var atomNames = [...]string{"ADD", "MIN", "MAX", "AND", "OR", "XOR", "EXCH", "CAS"}

func (a AtomOp) String() string {
	if int(a) < len(atomNames) {
		return atomNames[a]
	}
	return fmt.Sprintf("ATOMOP(%d)", uint8(a))
}

// MufuFunc selects the MUFU special function.
type MufuFunc uint8

// MUFU special functions.
const (
	MufuRCP MufuFunc = iota
	MufuRSQ
	MufuSQRT
	MufuSIN
	MufuCOS
	MufuEX2
	MufuLG2
)

var mufuNames = [...]string{"RCP", "RSQ", "SQRT", "SIN", "COS", "EX2", "LG2"}

func (f MufuFunc) String() string {
	if int(f) < len(mufuNames) {
		return mufuNames[f]
	}
	return fmt.Sprintf("MUFU(%d)", uint8(f))
}

// VoteMode selects the VOTE collective.
type VoteMode uint8

// VOTE modes.
const (
	VoteALL VoteMode = iota
	VoteANY
	VoteBALLOT
)

var voteNames = [...]string{"ALL", "ANY", "BALLOT"}

func (v VoteMode) String() string {
	if int(v) < len(voteNames) {
		return voteNames[v]
	}
	return fmt.Sprintf("VOTE(%d)", uint8(v))
}

// ShflMode selects the SHFL data movement pattern.
type ShflMode uint8

// SHFL modes.
const (
	ShflIDX ShflMode = iota
	ShflUP
	ShflDOWN
	ShflBFLY
)

var shflNames = [...]string{"IDX", "UP", "DOWN", "BFLY"}

func (s ShflMode) String() string {
	if int(s) < len(shflNames) {
		return shflNames[s]
	}
	return fmt.Sprintf("SHFL(%d)", uint8(s))
}

// SpecialReg identifies an S2R-readable special register.
type SpecialReg uint8

// Special registers.
const (
	SRLaneID SpecialReg = iota
	SRTidX
	SRTidY
	SRTidZ
	SRCtaidX
	SRCtaidY
	SRCtaidZ
	SRNTidX
	SRNTidY
	SRNTidZ
	SRNCtaidX
	SRNCtaidY
	SRNCtaidZ
	SRWarpID
	SRSMID
	SRClock
)

var srNames = [...]string{
	"SR_LANEID", "SR_TID.X", "SR_TID.Y", "SR_TID.Z",
	"SR_CTAID.X", "SR_CTAID.Y", "SR_CTAID.Z",
	"SR_NTID.X", "SR_NTID.Y", "SR_NTID.Z",
	"SR_NCTAID.X", "SR_NCTAID.Y", "SR_NCTAID.Z",
	"SR_WARPID", "SR_SMID", "SR_CLOCK",
}

func (s SpecialReg) String() string {
	if int(s) < len(srNames) {
		return srNames[s]
	}
	return fmt.Sprintf("SR(%d)", uint8(s))
}
