package sim_test

import (
	"math"
	"testing"

	"sassi/internal/sass"
)

// expectAll asserts all lanes produced the same expected values.
func expectAll(t *testing.T, got [][]uint32, want ...uint32) {
	t.Helper()
	for lane, regs := range got {
		for i, w := range want {
			if regs[i] != w {
				t.Fatalf("lane %d out[%d] = %#x, want %#x", lane, i, regs[i], w)
			}
		}
	}
}

func TestIADDBasic(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 7),
			alu(sass.OpIADD, sass.Mods{}, 1, sass.R(0), sass.Imm(5)),
			alu(sass.OpIADD, sass.Mods{NegB: true}, 2, sass.R(1), sass.R(0)),
			alu(sass.OpIADD, sass.Mods{}, 3, sass.R(0), sass.Imm(-10)),
		},
		outRegs: []uint8{1, 2, 3},
	}
	expectAll(t, h.run(t), 12, 5, uint32(0xFFFFFFFD))
}

func TestIADDCarryChain(t *testing.T) {
	// 64-bit add: (0xFFFFFFFF, 1) + (2, 0) = (1, 2).
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, int64(int32(-1))), // lo a
			movi(1, 1),                // hi a
			movi(2, 2),                // lo b
			movi(3, 0),                // hi b
			alu(sass.OpIADD, sass.Mods{SetCC: true}, 4, sass.R(0), sass.R(2)),
			alu(sass.OpIADD, sass.Mods{X: true}, 5, sass.R(1), sass.R(3)),
		},
		outRegs: []uint8{4, 5},
	}
	expectAll(t, h.run(t), 1, 2)
}

func TestIADDCCFlags(t *testing.T) {
	// Zero result sets Z; shuttle CC into a register via P2R.X.
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 5),
			alu(sass.OpIADD, sass.Mods{SetCC: true, NegB: true}, 1, sass.R(0), sass.R(0)),
			alu(sass.OpP2R, sass.Mods{X: true}, 2, sass.R(sass.RZ), sass.Imm(0xf)),
		},
		outRegs: []uint8{1, 2},
	}
	got := h.run(t)
	// result 0: Z set, carry set (5 + (-5) wraps).
	if got[0][0] != 0 {
		t.Fatalf("result = %d", got[0][0])
	}
	cc := got[0][1]
	if cc&1 == 0 {
		t.Errorf("zero flag not set, cc=%#x", cc)
	}
	if cc&4 == 0 {
		t.Errorf("carry flag not set, cc=%#x", cc)
	}
}

func TestIMULIMAD(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 7),
			movi(1, 6),
			movi(2, 100),
			alu(sass.OpIMUL, sass.Mods{}, 3, sass.R(0), sass.R(1)),
			{Guard: sass.Always, Op: sass.OpIMAD,
				Dsts: []sass.Operand{sass.R(4)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.R(2)}},
		},
		outRegs: []uint8{3, 4},
	}
	expectAll(t, h.run(t), 42, 142)
}

func TestISCADD(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 3),
			movi(1, 100),
			{Guard: sass.Always, Op: sass.OpISCADD,
				Dsts: []sass.Operand{sass.R(2)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.Imm(4)}},
		},
		outRegs: []uint8{2},
	}
	expectAll(t, h.run(t), 3<<4+100)
}

func TestShifts(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, int64(int32(-16))),
			alu(sass.OpSHL, sass.Mods{}, 1, sass.R(0), sass.Imm(2)),
			alu(sass.OpSHR, sass.Mods{Unsigned: true}, 2, sass.R(0), sass.Imm(2)),
			alu(sass.OpSHR, sass.Mods{}, 3, sass.R(0), sass.Imm(2)),  // arithmetic
			alu(sass.OpSHL, sass.Mods{}, 4, sass.R(0), sass.Imm(35)), // over-shift -> 0
			alu(sass.OpSHR, sass.Mods{}, 5, sass.R(0), sass.Imm(40)), // arithmetic clamp
		},
		outRegs: []uint8{1, 2, 3, 4, 5},
	}
	expectAll(t, h.run(t),
		uint32(0xFFFFFFC0), uint32(0xFFFFFFF0)>>2, uint32(0xFFFFFFFC), 0, 0xFFFFFFFF)
}

func TestLOPVariants(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 0b1100),
			movi(1, 0b1010),
			alu(sass.OpLOP, sass.Mods{Logic: sass.LogicAND}, 2, sass.R(0), sass.R(1)),
			alu(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, 3, sass.R(0), sass.R(1)),
			alu(sass.OpLOP, sass.Mods{Logic: sass.LogicXOR}, 4, sass.R(0), sass.R(1)),
			alu(sass.OpLOP, sass.Mods{Logic: sass.LogicPASS}, 5, sass.R(0), sass.R(1)),
			alu(sass.OpLOP, sass.Mods{Logic: sass.LogicNOT}, 6, sass.R(sass.RZ), sass.R(1)),
		},
		outRegs: []uint8{2, 3, 4, 5, 6},
	}
	expectAll(t, h.run(t), 0b1000, 0b1110, 0b0110, 0b1010, ^uint32(0b1010))
}

func TestBitfieldOps(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 0x12345678),
			// BFE pos=8 len=8 -> 0x56.
			alu(sass.OpBFE, sass.Mods{Unsigned: true}, 1, sass.R(0), sass.Imm(8|8<<8)),
			// Signed BFE of 0xF8 at pos 0 len 8 -> sign extended.
			movi(2, 0xF8),
			alu(sass.OpBFE, sass.Mods{}, 3, sass.R(2), sass.Imm(0|8<<8)),
			// BFI insert 0xAB into 0 at pos 4 len 8.
			movi(4, 0xAB),
			{Guard: sass.Always, Op: sass.OpBFI,
				Dsts: []sass.Operand{sass.R(5)},
				Srcs: []sass.Operand{sass.R(4), sass.Imm(4 | 8<<8), sass.R(sass.RZ)}},
			// FLO and POPC.
			alu(sass.OpFLO, sass.Mods{}, 6, sass.R(0)),
			alu(sass.OpPOPC, sass.Mods{}, 7, sass.R(0)),
			alu(sass.OpFLO, sass.Mods{}, 8, sass.R(sass.RZ)),
		},
		outRegs: []uint8{1, 3, 5, 6, 7, 8},
	}
	expectAll(t, h.run(t), 0x56, uint32(0xFFFFFFF8), 0xAB0, 28, 13, 0xFFFFFFFF)
}

func TestMinMax(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, int64(int32(-5))),
			movi(1, 3),
			// signed min/max
			{Guard: sass.Always, Op: sass.OpIMNMX,
				Dsts: []sass.Operand{sass.R(2)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.P(sass.PT)}},
			{Guard: sass.Always, Op: sass.OpIMNMX,
				Dsts: []sass.Operand{sass.R(3)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.NotP(sass.PT)}},
			// unsigned: -5 is huge
			{Guard: sass.Always, Op: sass.OpIMNMX, Mods: sass.Mods{Unsigned: true},
				Dsts: []sass.Operand{sass.R(4)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.P(sass.PT)}},
		},
		outRegs: []uint8{2, 3, 4},
	}
	expectAll(t, h.run(t), uint32(0xFFFFFFFB), 3, 3)
}

func TestSETPAndSEL(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			tid(0),
			setp(0, sass.CmpLT, true, sass.R(0), sass.Imm(16)),
			movi(1, 111),
			movi(2, 222),
			{Guard: sass.Always, Op: sass.OpSEL,
				Dsts: []sass.Operand{sass.R(3)},
				Srcs: []sass.Operand{sass.R(1), sass.R(2), sass.P(0)}},
		},
		outRegs: []uint8{3},
	}
	got := h.run(t)
	for lane := 0; lane < 32; lane++ {
		want := uint32(222)
		if lane < 16 {
			want = 111
		}
		if got[lane][0] != want {
			t.Fatalf("lane %d = %d, want %d", lane, got[lane][0], want)
		}
	}
}

func TestSETPAllComparisons(t *testing.T) {
	cmps := []struct {
		cmp  sass.CmpOp
		a, b int64
		want bool
	}{
		{sass.CmpLT, -1, 1, true},
		{sass.CmpLE, 1, 1, true},
		{sass.CmpGT, 2, 1, true},
		{sass.CmpGE, 1, 2, false},
		{sass.CmpEQ, 3, 3, true},
		{sass.CmpNE, 3, 3, false},
	}
	for _, c := range cmps {
		h := &warpHarness{
			instrs: []sass.Instruction{
				movi(0, c.a),
				movi(1, c.b),
				{Guard: sass.Always, Op: sass.OpISETP,
					Mods: sass.Mods{Cmp: c.cmp, Logic: sass.LogicAND},
					Dsts: []sass.Operand{sass.P(0)},
					Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.P(sass.PT)}},
				alu(sass.OpP2R, sass.Mods{}, 2, sass.R(sass.RZ), sass.Imm(1)),
			},
			outRegs: []uint8{2},
			threads: 1,
		}
		got := h.run(t)
		want := uint32(0)
		if c.want {
			want = 1
		}
		if got[0][0] != want {
			t.Errorf("cmp %v %d %d: P0 = %d, want %d", c.cmp, c.a, c.b, got[0][0], want)
		}
	}
}

func TestSETPPairDest(t *testing.T) {
	// ISETP with two predicate outputs: Pq = complement.
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 5),
			{Guard: sass.Always, Op: sass.OpISETP,
				Mods: sass.Mods{Cmp: sass.CmpLT, Logic: sass.LogicAND},
				Dsts: []sass.Operand{sass.P(0), sass.P(1)},
				Srcs: []sass.Operand{sass.R(0), sass.Imm(10), sass.P(sass.PT)}},
			alu(sass.OpP2R, sass.Mods{}, 1, sass.R(sass.RZ), sass.Imm(3)),
		},
		outRegs: []uint8{1},
		threads: 1,
	}
	if got := h.run(t); got[0][0] != 0b01 {
		t.Errorf("pred pair = %#b, want 0b01", got[0][0])
	}
}

func TestPSETPAndR2P(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 0b101),
			alu(sass.OpR2P, sass.Mods{}, sass.RZ, sass.R(0), sass.Imm(0x7f)),
			// P3 = P0 && P2 (both set) -> true
			{Guard: sass.Always, Op: sass.OpPSETP, Mods: sass.Mods{Logic: sass.LogicAND},
				Dsts: []sass.Operand{sass.P(3)},
				Srcs: []sass.Operand{sass.P(0), sass.P(2)}},
			// P4 = P1 || P0 -> true
			{Guard: sass.Always, Op: sass.OpPSETP, Mods: sass.Mods{Logic: sass.LogicOR},
				Dsts: []sass.Operand{sass.P(4)},
				Srcs: []sass.Operand{sass.P(1), sass.P(0)}},
			alu(sass.OpP2R, sass.Mods{}, 1, sass.R(sass.RZ), sass.Imm(0x7f)),
		},
		outRegs: []uint8{1},
		threads: 1,
	}
	got := h.run(t)
	want := uint32(0b101 | 1<<3 | 1<<4)
	if got[0][0] != want {
		t.Errorf("preds = %#b, want %#b", got[0][0], want)
	}
}

// TestP2RR2PMasksAndCC: the predicate/CC shuttles injected code is built
// from, per lane (R0 = tid), with partial masks, a non-zero merge operand
// and the .X (condition code) forms.
func TestP2RR2PMasksAndCC(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			tid(0),
			// Preds = tid under mask 0x55 (PT stays set, P1/P3/P5 stay clear).
			alu(sass.OpR2P, sass.Mods{}, sass.RZ, sass.R(0), sass.Imm(0x55)),
			movi(1, 0xffff0000),
			// R2 = (R1 &^ 0x0f) | (Preds & 0x0f)
			alu(sass.OpP2R, sass.Mods{}, 2, sass.R(1), sass.Imm(0x0f)),
			// R3 = whole predicate file, PT included.
			alu(sass.OpP2R, sass.Mods{}, 3, sass.R(sass.RZ), sass.Imm(0xff)),
			// CC = tid>>1 under mask 0b0110, then read it back.
			alu(sass.OpSHR, sass.Mods{Unsigned: true}, 4, sass.R(0), sass.Imm(1)),
			alu(sass.OpR2P, sass.Mods{X: true}, sass.RZ, sass.R(4), sass.Imm(0b0110)),
			alu(sass.OpP2R, sass.Mods{X: true}, 5, sass.R(1), sass.Imm(0xf)),
		},
		outRegs: []uint8{2, 3, 5},
	}
	for lane, got := range h.run(t) {
		preds := uint32(lane) & 0x55
		want := []uint32{0xffff0000 | preds&0x0f, preds | 1<<7, 0xffff0000 | uint32(lane)>>1&0b0110}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("lane %d out[%d] = %#x, want %#x", lane, i, got[i], want[i])
			}
		}
	}
}

func fbits(f float32) int64 { return int64(int32(math.Float32bits(f))) }

func TestFloatOps(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, fbits(1.5)),
			movi(1, fbits(2.25)),
			alu(sass.OpFADD, sass.Mods{}, 2, sass.R(0), sass.R(1)),
			alu(sass.OpFMUL, sass.Mods{}, 3, sass.R(0), sass.R(1)),
			alu(sass.OpFADD, sass.Mods{NegB: true}, 4, sass.R(0), sass.R(1)),
			{Guard: sass.Always, Op: sass.OpFFMA,
				Dsts: []sass.Operand{sass.R(5)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.R(0)}},
		},
		outRegs: []uint8{2, 3, 4, 5},
	}
	expectAll(t, h.run(t),
		math.Float32bits(3.75), math.Float32bits(3.375),
		math.Float32bits(-0.75), math.Float32bits(1.5*2.25+1.5))
}

func TestMUFU(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, fbits(4.0)),
			alu(sass.OpMUFU, sass.Mods{Mufu: sass.MufuRCP}, 1, sass.R(0)),
			alu(sass.OpMUFU, sass.Mods{Mufu: sass.MufuSQRT}, 2, sass.R(0)),
			alu(sass.OpMUFU, sass.Mods{Mufu: sass.MufuRSQ}, 3, sass.R(0)),
			alu(sass.OpMUFU, sass.Mods{Mufu: sass.MufuEX2}, 4, sass.R(0)),
			alu(sass.OpMUFU, sass.Mods{Mufu: sass.MufuLG2}, 5, sass.R(0)),
		},
		outRegs: []uint8{1, 2, 3, 4, 5},
	}
	expectAll(t, h.run(t),
		math.Float32bits(0.25), math.Float32bits(2), math.Float32bits(0.5),
		math.Float32bits(16), math.Float32bits(2))
}

func TestConversions(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, fbits(-3.7)),
			alu(sass.OpF2I, sass.Mods{}, 1, sass.R(0)), // trunc toward zero
			movi(2, int64(int32(-7))),
			alu(sass.OpI2F, sass.Mods{}, 3, sass.R(2)),
			alu(sass.OpI2F, sass.Mods{Unsigned: true}, 4, sass.R(2)),
			movi(5, fbits(3e10)), // overflows int32 -> saturate
			alu(sass.OpF2I, sass.Mods{}, 6, sass.R(5)),
		},
		outRegs: []uint8{1, 3, 4, 6},
	}
	expectAll(t, h.run(t),
		uint32(0xFFFFFFFD), math.Float32bits(-7),
		math.Float32bits(float32(uint32(0xFFFFFFF9))), uint32(math.MaxInt32))
}

func TestFSETPAndFMNMX(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, fbits(1.0)),
			movi(1, fbits(2.0)),
			{Guard: sass.Always, Op: sass.OpFSETP,
				Mods: sass.Mods{Cmp: sass.CmpLT, Logic: sass.LogicAND},
				Dsts: []sass.Operand{sass.P(0)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.P(sass.PT)}},
			alu(sass.OpP2R, sass.Mods{}, 2, sass.R(sass.RZ), sass.Imm(1)),
			{Guard: sass.Always, Op: sass.OpFMNMX,
				Dsts: []sass.Operand{sass.R(3)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.P(sass.PT)}},
			{Guard: sass.Always, Op: sass.OpFMNMX,
				Dsts: []sass.Operand{sass.R(4)},
				Srcs: []sass.Operand{sass.R(0), sass.R(1), sass.NotP(sass.PT)}},
		},
		outRegs: []uint8{2, 3, 4},
	}
	expectAll(t, h.run(t), 1, math.Float32bits(1), math.Float32bits(2))
}

func TestPredicationMasksExecution(t *testing.T) {
	// Odd lanes skip the write; R1 keeps its original value there.
	h := &warpHarness{
		instrs: []sass.Instruction{
			tid(0),
			movi(1, 99),
			alu(sass.OpLOP, sass.Mods{Logic: sass.LogicAND}, 2, sass.R(0), sass.Imm(1)),
			setp(0, sass.CmpEQ, true, sass.R(2), sass.Imm(0)),
			guarded(movi(1, 55), 0, false),
		},
		outRegs: []uint8{1},
	}
	got := h.run(t)
	for lane := 0; lane < 32; lane++ {
		want := uint32(99)
		if lane%2 == 0 {
			want = 55
		}
		if got[lane][0] != want {
			t.Fatalf("lane %d = %d, want %d", lane, got[lane][0], want)
		}
	}
}

func TestRZIsImmutableZero(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(sass.RZ, 77), // dropped
			alu(sass.OpIADD, sass.Mods{}, 0, sass.R(sass.RZ), sass.Imm(5)),
		},
		outRegs: []uint8{0},
	}
	expectAll(t, h.run(t), 5)
}

func TestSpecialRegisters(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sass.SRLaneID)}),
			sass.New(sass.OpS2R, []sass.Operand{sass.R(1)}, []sass.Operand{sass.SReg(sass.SRNTidX)}),
			sass.New(sass.OpS2R, []sass.Operand{sass.R(2)}, []sass.Operand{sass.SReg(sass.SRCtaidX)}),
			sass.New(sass.OpS2R, []sass.Operand{sass.R(3)}, []sass.Operand{sass.SReg(sass.SRNCtaidX)}),
		},
		outRegs: []uint8{0, 1, 2, 3},
	}
	got := h.run(t)
	for lane := 0; lane < 32; lane++ {
		if got[lane][0] != uint32(lane) {
			t.Fatalf("laneid = %d, want %d", got[lane][0], lane)
		}
		if got[lane][1] != 32 || got[lane][2] != 0 || got[lane][3] != 1 {
			t.Fatalf("ntid/ctaid/nctaid = %v", got[lane][1:])
		}
	}
}
