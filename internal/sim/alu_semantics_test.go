package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

var updateALU = flag.Bool("update", false, "rewrite testdata/alu_semantics.golden")

// Registers of an ALU semantics case: the per-lane operands, the
// destination's prior value (what a lane that does not write keeps), and
// the results a case records.
const (
	rA, rB, rC = 0, 1, 2 // value sources
	rP         = 3       // predicate pattern source: P1 = rP != 0
	rCarry     = 4       // carry-in source: CC = IADD.CC(rCarry, 1)
	rD         = 10      // result, holding the prior value before
	rCC        = 11      // the condition code after the instruction (P2R.X)
	rPF        = 12      // the predicate file after the instruction (P2R)
)

// Edge operands, one per lane.
var (
	intEdges = [32]uint32{
		0, 1, 2, 0x7fffffff, 0x80000000, 0xffffffff, 0xfffffffe, 0x80000001,
		31, 32, 33, 63, 64, 0x12345678, 0x87654321, 0xdeadbeef,
		0x0000ffff, 0xffff0000, 5, 0xfffffffb, 0x55555555, 0xaaaaaaaa, 255, 256,
		0x40000000, 0xc0000000, 0x00010000, 0x7ffffffe, 3, 0xfffffffd, 0x0f0f0f0f, 0xf0f0f0f0,
	}
	shiftEdges = [32]uint32{
		0, 1, 2, 4, 8, 15, 16, 17, 30, 31, 32, 33, 34, 63, 64, 65,
		100, 127, 128, 255, 256, 257, 0x7fffffff, 0x80000000, 0xffffffff, 0xffffffe1, 0x1f, 0x20, 0x3f, 0xff00001f, 5, 7,
	}
	floatEdges = [32]uint32{
		0x00000000, 0x80000000, 0x7f800000, 0xff800000, // ±0, ±Inf
		0x7fc00000, 0xffc00001, 0x7f800001, 0x00000001, // NaNs, smallest denormal
		0x007fffff, 0x80000001, 0x807fffff, 0x00800000, // denormals, smallest normal
		0x3f800000, 0xbf800000, 0x3f000000, 0x40000000, // ±1, 0.5, 2
		0x406ccccd, 0xc06ccccd, 0x7f7fffff, 0xff7fffff, // ±3.7, ±MaxFloat32
		0x4f000000, 0xcf000000, 0x4effffff, 0xcf000001, // ±2^31, just below 2^31, just past -2^31
		0x4f800000, 0x2edbe6ff, 0x47f1205a, 0xbf000000, // 2^32, 1e-10, 123456.7, -0.5
		0x3fc00000, 0xc0200000, 0x40490fdb, 0x3dcccccd, // 1.5, -2.5, pi, 0.1
	}
	// bitfield packs a BFE/BFI position and length as pos | len<<8, with
	// both past their ranges and junk above bit 15.
	bitfieldEdges = func() (v [32]uint32) {
		pos := []uint32{0, 1, 8, 31, 32, 255, 4, 28}
		n := []uint32{0, 1, 8, 32}
		for i := range v {
			v[i] = pos[i%8] | n[i/8]<<8
		}
		v[3] |= 0xabcd0000
		v[30] = 16 | 16<<8
		v[31] = 31 | 33<<8
		return v
	}()
	bitfieldEdges2 = func() (v [32]uint32) {
		pos := []uint32{0, 3, 16, 31}
		n := []uint32{31, 33, 255, 2, 24, 16, 7, 9}
		for i := range v {
			v[i] = pos[i%4] | n[i/4]<<8
		}
		return v
	}()
	// initEdges is a destination's prior value: distinct per lane, so a
	// lane that writes nothing shows.
	initEdges = func() (v [32]uint32) {
		for i := range v {
			v[i] = 0xa5a50000 | uint32(i)
		}
		return v
	}()
	// predPattern is P1 per lane, irregular enough to split
	// warps in both directions.
	predPattern = [32]uint32{1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1}
	// carryPattern is CC's carry-in: lane l's IADD.CC of carryPattern[l]
	// and 1 carries where the operand is ~0.
	carryPattern = func() (v [32]uint32) {
		for i := range v {
			if predPattern[(i+5)%32] != 0 {
				v[i] = 0xffffffff
			} else {
				v[i] = uint32(i)
			}
		}
		return v
	}()
)

// rot rotates a lane vector by k lanes, pairing each edge operand with
// others.
func rot(v [32]uint32, k int) (r [32]uint32) {
	for i := range r {
		r[i] = v[(i+k)%32]
	}
	return r
}

// aluCase is one instruction under test and the operands it reads.
type aluCase struct {
	name    string
	a, b, c [32]uint32
	in      sass.Instruction
	// outs are the registers the case records, one result vector each.
	outs []uint8
}

var (
	r, imm, pr = sass.R, sass.Imm, sass.P
	p2rAll     = alu(sass.OpP2R, sass.Mods{}, rPF, r(sass.RZ), imm(0xff))
	p2rCC      = alu(sass.OpP2R, sass.Mods{X: true}, rCC, r(sass.RZ), imm(0xf))
	setP1      = sass.Instruction{Guard: sass.Always, Op: sass.OpISETP,
		Mods: sass.Mods{Cmp: sass.CmpNE, Logic: sass.LogicAND},
		Dsts: []sass.Operand{pr(1)}, Srcs: []sass.Operand{r(rP), r(sass.RZ), pr(sass.PT)}}
	// setCarry leaves CC's carry set in the lanes whose rCarry is ~0 and
	// P2 holding the complement of P1, so every SETP case starts from
	// both predicates known.
	setCarry = []sass.Instruction{
		{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
			Dsts: []sass.Operand{r(20)}, Srcs: []sass.Operand{r(rCarry), imm(1)}},
		setP1,
		{Guard: sass.Always, Op: sass.OpPSETP, Mods: sass.Mods{Logic: sass.LogicPASS},
			Dsts: []sass.Operand{pr(2)}, Srcs: []sass.Operand{sass.NotP(1), pr(sass.PT)}},
	}
)

func aluCases() []aluCase {
	var cs []aluCase
	add := func(name string, a, b, c [32]uint32, in sass.Instruction) {
		// What the instruction may write: the destination or the predicate
		// file, and the condition code where a .CC or .X is present.
		outs := []uint8{rD}
		switch in.Op {
		case sass.OpISETP, sass.OpFSETP, sass.OpPSETP, sass.OpR2P:
			outs = []uint8{rPF}
		}
		if in.Mods.SetCC || in.Mods.X {
			outs = append(outs, rCC)
		}
		cs = append(cs, aluCase{name: name, a: a, b: b, c: c, in: in, outs: outs})
	}
	op2 := func(op sass.Opcode, m sass.Mods) sass.Instruction { return alu(op, m, rD, r(rA), r(rB)) }
	op3 := func(op sass.Opcode, m sass.Mods) sass.Instruction { return alu(op, m, rD, r(rA), r(rB), r(rC)) }
	op1 := func(op sass.Opcode, m sass.Mods) sass.Instruction { return alu(op, m, rD, r(rA)) }
	ints := func(name string, in sass.Instruction) {
		for _, k := range []int{0, 1, 7, 19} {
			add(fmt.Sprintf("%s rot%d", name, k), intEdges, rot(intEdges, k), rot(intEdges, 2*k+3), in)
		}
	}
	floatRots := func(name string, in sass.Instruction, rots ...int) {
		for _, k := range rots {
			add(fmt.Sprintf("%s rot%d", name, k), floatEdges, rot(floatEdges, k), rot(floatEdges, 3*k+1), in)
		}
	}
	floats := func(name string, in sass.Instruction) { floatRots(name, in, 0, 1, 5, 13, 22) }

	// Integer arithmetic, every .CC/.X/NegB combination on IADD.
	for _, op := range []sass.Opcode{sass.OpIADD, sass.OpIADD32} {
		for _, m := range []sass.Mods{{}, {NegB: true}, {SetCC: true}, {X: true}, {SetCC: true, X: true},
			{SetCC: true, NegB: true}, {X: true, NegB: true}, {SetCC: true, X: true, NegB: true}} {
			ints(fmt.Sprintf("%s cc=%v x=%v neg=%v", op, m.SetCC, m.X, m.NegB), op2(op, m))
		}
	}
	ints("IMUL", op2(sass.OpIMUL, sass.Mods{}))
	ints("IMAD", op3(sass.OpIMAD, sass.Mods{}))
	add("ISCADD shifts", intEdges, rot(intEdges, 9), shiftEdges, op3(sass.OpISCADD, sass.Mods{}))
	ints("ISCADD", op3(sass.OpISCADD, sass.Mods{}))

	// Shifts by every edge amount, ≥ 32 included.
	for _, k := range []int{0, 11} {
		add(fmt.Sprintf("SHL rot%d", k), rot(intEdges, k), shiftEdges, intEdges, op2(sass.OpSHL, sass.Mods{}))
		add(fmt.Sprintf("SHR.S32 rot%d", k), rot(intEdges, k), shiftEdges, intEdges, op2(sass.OpSHR, sass.Mods{}))
		add(fmt.Sprintf("SHR.U32 rot%d", k), rot(intEdges, k), shiftEdges, intEdges, op2(sass.OpSHR, sass.Mods{Unsigned: true}))
	}

	// Logic, including an out-of-enum operator (writes nothing).
	for _, l := range []sass.LogicOp{sass.LogicAND, sass.LogicOR, sass.LogicXOR, sass.LogicPASS, sass.LogicNOT, 5, 200} {
		ints(fmt.Sprintf("LOP.%s", l), op2(sass.OpLOP, sass.Mods{Logic: l}))
	}

	// Bit fields: position and length edges, signed and unsigned.
	for _, u := range []bool{false, true} {
		for i, bf := range [][32]uint32{bitfieldEdges, bitfieldEdges2} {
			for _, k := range []int{0, 5, 15} {
				add(fmt.Sprintf("BFE u=%v fields%d rot%d", u, i, k), rot(intEdges, k), bf, intEdges,
					op2(sass.OpBFE, sass.Mods{Unsigned: u}))
			}
		}
	}
	for i, bf := range [][32]uint32{bitfieldEdges, bitfieldEdges2} {
		for _, k := range []int{0, 5, 15} {
			add(fmt.Sprintf("BFI fields%d rot%d", i, k), rot(intEdges, k), bf, rot(intEdges, k+16),
				op3(sass.OpBFI, sass.Mods{}))
		}
	}
	ints("FLO", op1(sass.OpFLO, sass.Mods{}))
	ints("POPC", op1(sass.OpPOPC, sass.Mods{}))

	// Selects and min/max, with the selector present, negated and absent.
	ints("SEL P1", alu(sass.OpSEL, sass.Mods{}, rD, r(rA), r(rB), pr(1)))
	ints("SEL !P1", alu(sass.OpSEL, sass.Mods{}, rD, r(rA), r(rB), sass.NotP(1)))
	for _, op := range []sass.Opcode{sass.OpIMNMX, sass.OpFMNMX} {
		for _, u := range []bool{false, true} {
			if op == sass.OpFMNMX && u {
				continue
			}
			m := sass.Mods{Unsigned: u}
			each := ints
			if op == sass.OpFMNMX {
				each = floats
			}
			each(fmt.Sprintf("%s u=%v", op, u), op2(op, m))
			each(fmt.Sprintf("%s u=%v P1", op, u), alu(op, m, rD, r(rA), r(rB), pr(1)))
			each(fmt.Sprintf("%s u=%v !P1", op, u), alu(op, m, rD, r(rA), r(rB), sass.NotP(1)))
		}
	}

	// Compares: every Cmp (and one past the enum), signedness, combine
	// operator and complement destination.
	for _, op := range []sass.Opcode{sass.OpISETP, sass.OpFSETP} {
		for _, cmp := range []sass.CmpOp{sass.CmpLT, sass.CmpLE, sass.CmpGT, sass.CmpGE, sass.CmpEQ, sass.CmpNE, 6} {
			for _, u := range []bool{false, true} {
				if op == sass.OpFSETP && u {
					continue
				}
				for _, l := range []sass.LogicOp{sass.LogicAND, sass.LogicOR, sass.LogicXOR, sass.LogicPASS} {
					in := sass.Instruction{Guard: sass.Always, Op: op,
						Mods: sass.Mods{Cmp: cmp, Unsigned: u, Logic: l},
						Dsts: []sass.Operand{pr(3), pr(4)}, Srcs: []sass.Operand{r(rA), r(rB), pr(1)}}
					name := fmt.Sprintf("%s.%s u=%v %s", op, cmp, u, l)
					if op == sass.OpFSETP {
						floats(name, in)
					} else {
						ints(name, in)
					}
				}
			}
		}
		// One destination, no combine predicate, a negated one.
		one := sass.Instruction{Guard: sass.Always, Op: op, Mods: sass.Mods{Cmp: sass.CmpLT},
			Dsts: []sass.Operand{pr(3)}, Srcs: []sass.Operand{r(rA), r(rB)}}
		neg := sass.Instruction{Guard: sass.Always, Op: op, Mods: sass.Mods{Cmp: sass.CmpGE, Logic: sass.LogicOR},
			Dsts: []sass.Operand{pr(3), pr(4)}, Srcs: []sass.Operand{r(rA), r(rB), sass.NotP(2)}}
		if op == sass.OpFSETP {
			floats(op.String()+" single", one)
			floats(op.String()+" !P2", neg)
		} else {
			ints(op.String()+" single", one)
			ints(op.String()+" !P2", neg)
		}
	}

	// Predicate logic and the predicate/CC shuttles.
	for _, l := range []sass.LogicOp{sass.LogicAND, sass.LogicOR, sass.LogicXOR, sass.LogicPASS, sass.LogicNOT, 9} {
		add(fmt.Sprintf("PSETP.%s", l), intEdges, intEdges, intEdges, sass.Instruction{Guard: sass.Always,
			Op: sass.OpPSETP, Mods: sass.Mods{Logic: l},
			Dsts: []sass.Operand{pr(5)}, Srcs: []sass.Operand{pr(1), sass.NotP(2)}})
	}
	for _, x := range []bool{false, true} {
		ints(fmt.Sprintf("P2R x=%v", x), alu(sass.OpP2R, sass.Mods{X: x}, rD, r(rA), r(rB)))
		ints(fmt.Sprintf("R2P x=%v", x), sass.Instruction{Guard: sass.Always, Op: sass.OpR2P,
			Mods: sass.Mods{X: x}, Srcs: []sass.Operand{r(rA), r(rB)}})
	}

	// Moves and special registers.
	ints("MOV", op1(sass.OpMOV, sass.Mods{}))
	ints("F2F", op1(sass.OpF2F, sass.Mods{}))
	add("MOV32I", intEdges, intEdges, intEdges, alu(sass.OpMOV32, sass.Mods{}, rD, imm(-7)))
	for _, sr := range []sass.SpecialReg{sass.SRLaneID, sass.SRTidX, sass.SRNTidX, sass.SRCtaidX, sass.SRWarpID} {
		add("S2R "+sr.String(), intEdges, intEdges, intEdges, alu(sass.OpS2R, sass.Mods{}, rD, sass.SReg(sr)))
	}

	// Floating point, NegB on the binary forms, every MUFU function and one
	// past the enum.
	// FADD and FMUL of two different NaNs are left out: when the golden was
	// recorded, the core and the reference interpreter returned different
	// operands' payloads there. Rotations 5, 13 and 22 pair each NaN with
	// numbers only; TestFloatNaNPairs covers the rest.
	for _, neg := range []bool{false, true} {
		floatRots(fmt.Sprintf("FADD neg=%v", neg), op2(sass.OpFADD, sass.Mods{NegB: neg}), 5, 13, 22)
		floatRots(fmt.Sprintf("FMUL neg=%v", neg), op2(sass.OpFMUL, sass.Mods{NegB: neg}), 5, 13, 22)
	}
	floatRots("FADD", op2(sass.OpFADD, sass.Mods{}), 0)
	floatRots("FMUL", op2(sass.OpFMUL, sass.Mods{}), 0)
	floats("FFMA", op3(sass.OpFFMA, sass.Mods{}))
	for _, f := range []sass.MufuFunc{sass.MufuRCP, sass.MufuRSQ, sass.MufuSQRT, sass.MufuSIN,
		sass.MufuCOS, sass.MufuEX2, sass.MufuLG2, 7} {
		floats("MUFU."+f.String(), op1(sass.OpMUFU, sass.Mods{Mufu: f}))
	}

	// Conversions: F2I saturation and NaN, I2F signed and unsigned.
	floats("F2I", op1(sass.OpF2I, sass.Mods{}))
	ints("F2I ints", op1(sass.OpF2I, sass.Mods{}))
	for _, u := range []bool{false, true} {
		ints(fmt.Sprintf("I2F u=%v", u), op1(sass.OpI2F, sass.Mods{Unsigned: u}))
	}

	// Modifiers an opcode ignores: a .CC or .X on anything but IADD, a
	// wide width on an ALU destination.
	ignored := []struct {
		name string
		in   sass.Instruction
	}{
		{"IMUL.CC", op2(sass.OpIMUL, sass.Mods{SetCC: true})},
		{"IMAD.X", op3(sass.OpIMAD, sass.Mods{X: true})},
		{"SHL.CC.X", op2(sass.OpSHL, sass.Mods{SetCC: true, X: true})},
		{"LOP.AND.X", op2(sass.OpLOP, sass.Mods{X: true})},
		{"MOV.CC", op1(sass.OpMOV, sass.Mods{SetCC: true})},
		{"F2F.X", op1(sass.OpF2F, sass.Mods{X: true})},
		{"FADD.CC", op2(sass.OpFADD, sass.Mods{SetCC: true})},
		{"BFE.X", op2(sass.OpBFE, sass.Mods{X: true})},
		{"POPC.CC", op1(sass.OpPOPC, sass.Mods{SetCC: true})},
		{"I2F.X", op1(sass.OpI2F, sass.Mods{X: true})},
		{"P2R.CC", alu(sass.OpP2R, sass.Mods{SetCC: true}, rD, r(rA), r(rB))},
		{"P2R.X.CC", alu(sass.OpP2R, sass.Mods{SetCC: true, X: true}, rD, r(rA), r(rB))},
		{"R2P.CC", sass.Instruction{Guard: sass.Always, Op: sass.OpR2P, Mods: sass.Mods{SetCC: true},
			Srcs: []sass.Operand{r(rA), r(rB)}}},
		{"ISETP.X", sass.Instruction{Guard: sass.Always, Op: sass.OpISETP,
			Mods: sass.Mods{Cmp: sass.CmpLT, X: true, SetCC: true},
			Dsts: []sass.Operand{pr(3), pr(4)}, Srcs: []sass.Operand{r(rA), r(rB), pr(1)}}},
		{"PSETP.CC", sass.Instruction{Guard: sass.Always, Op: sass.OpPSETP, Mods: sass.Mods{SetCC: true, X: true},
			Dsts: []sass.Operand{pr(5)}, Srcs: []sass.Operand{pr(1), pr(2)}}},
		{"IADD.64", op2(sass.OpIADD, sass.Mods{Width: sass.W64})},
		{"FFMA.128", op3(sass.OpFFMA, sass.Mods{Width: sass.W128})},
		{"MOV.64", op1(sass.OpMOV, sass.Mods{Width: sass.W64})},
	}
	for _, c := range ignored {
		ints(c.name, c.in)
	}

	// Uniform operands (immediates, RZ, a constant-bank word): every lane
	// reads the same value.
	cb := sass.CMem(0, int64(sass.CBStackBase))
	uni := []struct {
		name string
		in   sass.Instruction
	}{
		{"BFE imm", alu(sass.OpBFE, sass.Mods{}, rD, imm(0xf0f0), imm(4|8<<8))},
		{"BFE.U32 c[]", alu(sass.OpBFE, sass.Mods{Unsigned: true}, rD, cb, imm(20|12<<8))},
		{"BFI imm", alu(sass.OpBFI, sass.Mods{}, rD, imm(0x5), imm(28|8<<8), imm(0x0fffffff))},
		{"FLO imm", alu(sass.OpFLO, sass.Mods{}, rD, imm(0x00010000))},
		{"FLO RZ", alu(sass.OpFLO, sass.Mods{}, rD, r(sass.RZ))},
		{"POPC imm", alu(sass.OpPOPC, sass.Mods{}, rD, imm(-1))},
		{"POPC c[]", alu(sass.OpPOPC, sass.Mods{}, rD, cb)},
		{"F2I imm", alu(sass.OpF2I, sass.Mods{}, rD, imm(int64(math.Float32bits(-1e10))))},
		{"I2F imm", alu(sass.OpI2F, sass.Mods{}, rD, imm(-3))},
		{"I2F.U32 imm", alu(sass.OpI2F, sass.Mods{Unsigned: true}, rD, imm(-3))},
	}
	for _, c := range uni {
		add(c.name, intEdges, intEdges, intEdges, c.in)
	}

	// Guarded execution: lanes whose guard fails keep the prior value.
	for _, c := range []struct {
		name string
		in   sass.Instruction
	}{
		{"@P1 BFE", op2(sass.OpBFE, sass.Mods{})},
		{"@!P1 BFI", op3(sass.OpBFI, sass.Mods{})},
		{"@P1 FLO", op1(sass.OpFLO, sass.Mods{})},
		{"@!P1 POPC", op1(sass.OpPOPC, sass.Mods{})},
		{"@P1 F2I", op1(sass.OpF2I, sass.Mods{})},
		{"@!P1 I2F", op1(sass.OpI2F, sass.Mods{})},
		{"@P1 IADD.X.CC", op2(sass.OpIADD, sass.Mods{SetCC: true, X: true})},
		{"@!P1 ISETP", sass.Instruction{Op: sass.OpISETP, Mods: sass.Mods{Cmp: sass.CmpGT, Logic: sass.LogicAND},
			Dsts: []sass.Operand{pr(3), pr(4)}, Srcs: []sass.Operand{r(rA), r(rB), pr(2)}}},
	} {
		in := guarded(c.in, 1, strings.HasPrefix(c.name, "@!"))
		add(c.name, intEdges, rot(bitfieldEdges, 3), rot(intEdges, 5), in)
	}
	return cs
}

// aluFaultCases are ALU instructions that must fail the launch: a source
// reading a constant-bank word past the bank, in each operand position.
func aluFaultCases() []aluCase {
	far := sass.CMem(0, 1<<16)
	edge := sass.CMem(0, int64(sass.ParamBase+8-2)) // straddles the bank's end
	return []aluCase{
		{name: "IADD far c[] src0", in: alu(sass.OpIADD, sass.Mods{}, rD, far, r(rB))},
		{name: "IADD.CC straddling c[] src1", in: alu(sass.OpIADD, sass.Mods{SetCC: true}, rD, r(rA), edge)},
		{name: "IMAD far c[] src2", in: alu(sass.OpIMAD, sass.Mods{}, rD, r(rA), r(rB), far)},
		{name: "FSETP far c[] src1", in: sass.Instruction{Guard: sass.Always, Op: sass.OpFSETP,
			Dsts: []sass.Operand{pr(3)}, Srcs: []sass.Operand{r(rA), far}}},
		{name: "BFE far c[] src1", in: alu(sass.OpBFE, sass.Mods{}, rD, r(rA), far)},
		{name: "I2F far c[]", in: alu(sass.OpI2F, sass.Mods{}, rD, far)},
		{name: "P2R far c[] mask", in: alu(sass.OpP2R, sass.Mods{}, rD, r(rA), far)},
		{name: "MOV negative c[]", in: alu(sass.OpMOV, sass.Mods{}, rD, sass.CMem(0, -4))},
	}
}

func (c *aluCase) harness() *warpHarness {
	instrs := append([]sass.Instruction{}, setCarry...)
	instrs = append(instrs, c.in, p2rCC, p2rAll)
	return &warpHarness{
		instrs: instrs,
		inputs: []laneInput{{rA, c.a}, {rB, c.b}, {rC, c.c}, {rP, predPattern},
			{rCarry, carryPattern}, {rD, initEdges}},
		outRegs: c.outs,
	}
}

// TestALUSemanticsGolden pins every ALU and SETP opcode, under every
// modifier it reads, over edge operands — NaN, ±0, ±Inf, denormals, the
// int32 extremes, shifts past 31, carries in and out, bit-field positions
// and lengths past their ranges, F2I saturation, unsigned I2F — to
// testdata/alu_semantics.golden: the 32-lane result vectors of each case
// (the destination or the predicate file, and the condition code under a
// .CC or .X), each run
// through warpHarness on the default core and the reference interpreter,
// which must agree. A change to instruction semantics must reproduce it
// bit for bit; it is rewritten only for an intended change of results.
func TestALUSemanticsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range aluCases() {
		res := c.harness().run(t)
		for j, reg := range c.outs {
			fmt.Fprintf(&buf, "%s R%d:", c.name, reg)
			for lane := range res {
				fmt.Fprintf(&buf, " %08x", res[lane][j])
			}
			buf.WriteByte('\n')
		}
	}
	for _, c := range aluFaultCases() {
		h := c.harness()
		core := h.runErr(t, sim.NewDevice(sim.MiniGPU()))
		want := h.runErr(t, refDevice(sim.MiniGPU()))
		if fmt.Sprint(core) != fmt.Sprint(want) {
			t.Fatalf("%s: default core fails with %v, reference with %v", c.name, core, want)
		}
		fmt.Fprintf(&buf, "%s: %v\n", c.name, core)
	}
	const golden = "testdata/alu_semantics.golden"
	if *updateALU {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from the golden:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}

// TestFloatNaNPairs: FADD and FMUL of two NaNs — different payloads, one
// signalling, the second operand negated — return the first operand's NaN,
// quieted, on the core as on the reference interpreter.
func TestFloatNaNPairs(t *testing.T) {
	for _, op := range []sass.Opcode{sass.OpFADD, sass.OpFMUL} {
		for _, neg := range []bool{false, true} {
			for _, k := range []int{0, 1, 2} {
				c := aluCase{a: floatEdges, b: rot(floatEdges, k), outs: []uint8{rD},
					in: alu(op, sass.Mods{NegB: neg}, rD, r(rA), r(rB))}
				res := c.harness().run(t)
				for l := 4; l <= 6; l++ { // the NaN lanes
					if a, b := c.a[l], c.b[l]; math.IsNaN(float64(math.Float32frombits(b))) && res[l][0] != a|1<<22 {
						t.Errorf("%s neg=%v: lane %d %08x, %08x gives %08x", op, neg, l, a, b, res[l][0])
					}
				}
			}
		}
	}
}

// TestALUShapesMatchReference runs ALU and SETP instructions of random
// shape — any operand kind in any position, a predicate operand where a
// value is read and a register where a predicate is, destinations of
// either kind, operands past the ones an opcode reads, any modifier — on
// the core and the reference interpreter, which warpHarness requires to
// agree: every shape the core now classifies is checked against the
// reference, not only the ones a compiler emits.
func TestALUShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	operand := func() sass.Operand {
		n := uint8(rng.Intn(8)) // a register read as a predicate must name one
		switch rng.Intn(6) {
		case 1:
			return imm(int64(int32(intEdges[rng.Intn(32)])))
		case 2:
			return sass.CMem(0, int64(sass.CBStackBase))
		case 3:
			return sass.SReg(sass.SpecialReg(rng.Intn(int(sass.SRSMID) + 1)))
		case 4:
			return sass.Operand{Kind: sass.OpdPred, Reg: n, Neg: rng.Intn(2) == 0}
		}
		return r(n)
	}
	for i := 0; i < 200; i++ {
		op := sass.OpIADD + sass.Opcode(rng.Intn(int(sass.OpF2F-sass.OpIADD)+1))
		in := sass.Instruction{Guard: sass.Always, Op: op, Mods: sass.Mods{
			Cmp: sass.CmpOp(rng.Intn(8)), Logic: sass.LogicOp(rng.Intn(7)), Mufu: sass.MufuFunc(rng.Intn(8)),
			Unsigned: rng.Intn(2) == 0, SetCC: rng.Intn(3) == 0, X: rng.Intn(3) == 0, NegB: rng.Intn(2) == 0,
		}}
		if rng.Intn(4) == 0 {
			in.Guard = sass.PredGuard{Reg: 1, Neg: rng.Intn(2) == 0}
		}
		dsts, srcs := op.MinOperands()
		for j := 0; j < dsts+rng.Intn(2); j++ {
			d := sass.Operand{Kind: sass.OpdReg, Reg: uint8(rng.Intn(7))}
			if rng.Intn(2) == 0 {
				d.Kind = sass.OpdPred
			}
			in.Dsts = append(in.Dsts, d)
		}
		for j := 0; j < srcs+rng.Intn(2); j++ {
			in.Srcs = append(in.Srcs, operand())
		}
		h := &warpHarness{
			instrs: append(append([]sass.Instruction{}, setCarry...), in, p2rCC, p2rAll),
			inputs: []laneInput{{0, intEdges}, {1, rot(intEdges, 3)}, {2, floatEdges}, {3, predPattern},
				{4, carryPattern}, {5, rot(floatEdges, 7)}, {6, shiftEdges}, {7, bitfieldEdges}},
			outRegs: []uint8{0, 1, 2, 3, 4, 5, 6, rCC, rPF},
		}
		t.Run(fmt.Sprintf("%d-%s", i, op), func(t *testing.T) { h.run(t) })
	}
}
