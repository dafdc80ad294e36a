package sass

import (
	"testing"
	"unsafe"
)

// TestInstructionSize pins the instruction's 64 bytes: every pre-launch
// stage materializes one per instruction of every kernel it emits.
func TestInstructionSize(t *testing.T) {
	if n := unsafe.Sizeof(Instruction{}); n != 64 {
		t.Errorf("sass.Instruction is %d bytes, want 64", n)
	}
}

func TestOperandStrings(t *testing.T) {
	cases := []struct {
		o    Operand
		want string
	}{
		{R(4), "R4"},
		{R(RZ), "RZ"},
		{P(0), "P0"},
		{NotP(2), "!P2"},
		{P(PT), "PT"},
		{NotP(PT), "!PT"},
		{Imm(16), "0x10"},
		{Imm(-4), "-0x4"},
		{CMem(0, 0x140), "c[0x0][0x140]"},
		{Mem(4, 0), "[R4]"},
		{Mem(4, 0x18), "[R4+0x18]"},
		{Mem(4, -8), "[R4-0x8]"},
		{Mem(RZ, 0), "[RZ]"},
		{SReg(SRTidX), "SR_TID.X"},
		{Label("loop"), "loop"},
		{Sym("handler"), "handler"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("operand %+v: got %q, want %q", c.o, got, c.want)
		}
	}
}

func TestGuardString(t *testing.T) {
	if Always.String() != "" {
		t.Errorf("Always guard should render empty, got %q", Always.String())
	}
	g := PredGuard{Reg: 0}
	if got := g.String(); got != "@P0 " {
		t.Errorf("got %q", got)
	}
	g = PredGuard{Reg: 3, Neg: true}
	if got := g.String(); got != "@!P3 " {
		t.Errorf("got %q", got)
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{
		Guard: PredGuard{Reg: 0},
		Op:    OpST,
		Mods:  Mods{E: true},
		Srcs:  []Operand{Mem(10, 0), R(0)},
	}
	if got := in.String(); got != "@P0 ST.E [R10], R0 ;" {
		t.Errorf("got %q", got)
	}
	in2 := New(OpIADD, []Operand{R(1)}, []Operand{R(1), Imm(-0x80)})
	if got := in2.String(); got != "IADD R1, R1, -0x80 ;" {
		t.Errorf("got %q", got)
	}
	in3 := New(OpISETP, []Operand{P(0)}, []Operand{R(6), Imm(10), P(PT)})
	in3.Mods = Mods{Cmp: CmpLT, Unsigned: true, Logic: LogicAND}
	if got := in3.String(); got != "ISETP.LT.U32.AND P0, R6, 0xa, PT ;" {
		t.Errorf("got %q", got)
	}
}

func TestGPRDstsWidths(t *testing.T) {
	ld := New(OpLDG, []Operand{R(4)}, []Operand{Mem(8, 0)})
	ld.Mods.Width = W64
	if got := ld.GPRDsts(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("64-bit load dsts = %v, want [4 5]", got)
	}
	ld.Mods.Width = W128
	if got := ld.GPRDsts(); len(got) != 4 {
		t.Errorf("128-bit load dsts = %v, want 4 regs", got)
	}
	add := New(OpIADD, []Operand{R(2)}, []Operand{R(3), R(4)})
	if got := add.GPRDsts(); len(got) != 1 || got[0] != 2 {
		t.Errorf("IADD dsts = %v", got)
	}
	// Writes to RZ are not destinations.
	toRZ := New(OpIADD, []Operand{R(RZ)}, []Operand{R(3), R(4)})
	if got := toRZ.GPRDsts(); len(got) != 0 {
		t.Errorf("RZ write dsts = %v, want none", got)
	}
}

func TestGPRSrcsAddressAndData(t *testing.T) {
	st := New(OpSTG, nil, []Operand{Mem(8, 0), R(4)})
	st.Mods = Mods{E: true, Width: W64}
	got := st.GPRSrcs()
	// Address pair R8,R9 and data pair R4,R5.
	want := map[uint8]bool{8: true, 9: true, 4: true, 5: true}
	if len(got) != 4 {
		t.Fatalf("srcs = %v, want 4", got)
	}
	for _, r := range got {
		if !want[r] {
			t.Errorf("unexpected src R%d", r)
		}
	}
}

func TestPredSrcsIncludesGuard(t *testing.T) {
	in := New(OpSEL, []Operand{R(0)}, []Operand{R(1), R(2), P(3)})
	in.Guard = PredGuard{Reg: 1, Neg: true}
	got := in.AppendPredSrcs(nil)
	if len(got) != 2 {
		t.Fatalf("pred srcs = %v", got)
	}
	// PT guard and PT operands are excluded.
	in2 := New(OpSEL, []Operand{R(0)}, []Operand{R(1), R(2), P(PT)})
	if got := in2.AppendPredSrcs(nil); len(got) != 0 {
		t.Errorf("PT-only pred srcs = %v, want none", got)
	}
}

func TestIsCondBranch(t *testing.T) {
	br := New(OpBRA, nil, []Operand{Label("x")})
	if br.IsCondBranch() {
		t.Error("unconditional BRA classified as conditional")
	}
	br.Guard = PredGuard{Reg: 0}
	if !br.IsCondBranch() {
		t.Error("guarded BRA not classified as conditional")
	}
	exit := New(OpEXIT, nil, nil)
	exit.Guard = PredGuard{Reg: 0}
	if exit.IsCondBranch() {
		t.Error("guarded EXIT classified as conditional branch")
	}
}

func TestWritesPredAndCC(t *testing.T) {
	setp := New(OpISETP, []Operand{P(2)}, []Operand{R(0), R(1), P(PT)})
	if !setp.WritesPred() || setp.WritesGPR() {
		t.Error("ISETP should write preds only")
	}
	addcc := New(OpIADD, []Operand{R(0)}, []Operand{R(1), R(2)})
	addcc.Mods.SetCC = true
	if !addcc.WritesCC() || !addcc.WritesGPR() {
		t.Error("IADD.CC should write GPR and CC")
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := New(OpIADD, []Operand{R(0)}, []Operand{R(1), Imm(2)})
	cp := in.Clone()
	cp.Srcs[1] = Imm(99)
	if in.Srcs[1].Imm == 99 {
		t.Error("Clone shares source slice")
	}
}
