package sass

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeSummaryFields(t *testing.T) {
	st := New(OpSTG, nil, []Operand{Mem(4, 0), R(0)})
	st.Mods.Width = W64
	st.Guard = PredGuard{Reg: 3, Neg: true}
	w := EncodeSummary(&st)
	if SummaryOpcode(w) != OpSTG {
		t.Errorf("opcode = %v", SummaryOpcode(w))
	}
	if !SummaryIsMem(w) || !SummaryIsMemWrite(w) || SummaryIsMemRead(w) {
		t.Error("store classification wrong")
	}
	if width := w >> 16 & 0x1f; width != 8 {
		t.Errorf("width = %d, want 8", width)
	}
	if !SummaryIsGuarded(w) {
		t.Error("guard bit missing")
	}
	if SummaryIsAtomic(w) || SummaryIsTexture(w) || SummaryIsNumeric(w) {
		t.Error("spurious class bits")
	}

	atom := New(OpATOM, []Operand{R(0)}, []Operand{Mem(4, 0), R(2)})
	atom.Mods.Atom = AtomADD
	w2 := EncodeSummary(&atom)
	if !SummaryIsAtomic(w2) || !SummaryIsMem(w2) {
		t.Error("atomic classification wrong")
	}

	spill := New(OpSTL, nil, []Operand{Mem(1, 8), R(0)})
	if w3 := EncodeSummary(&spill); !SummaryIsSpillFill(w3) {
		t.Error("STL not classified spill/fill")
	}
}

func TestEncodeSummaryMatchesOpcodePredicates(t *testing.T) {
	for op := Opcode(0); op < opCount; op++ {
		in := New(op, nil, nil)
		w := EncodeSummary(&in)
		if SummaryIsMem(w) != op.IsMem() ||
			SummaryIsCtrlXfer(w) != op.IsControlXfer() ||
			SummaryIsSync(w) != op.IsSync() ||
			SummaryIsNumeric(w) != op.IsNumeric() ||
			SummaryIsTexture(w) != op.IsTexture() {
			t.Errorf("%s: summary bits disagree with opcode predicates", op)
		}
	}
}

// randInstr builds an arbitrary but structurally valid instruction.
func randInstr(r *rand.Rand) Instruction {
	in := Instruction{
		Guard: PredGuard{Reg: uint8(r.Intn(8)), Neg: r.Intn(2) == 0},
		Op:    Opcode(r.Intn(int(opCount))),
		Mods: Mods{
			Width:    []Width{0, W8, W16, W32, W64, W128}[r.Intn(6)],
			Cmp:      CmpOp(r.Intn(6)),
			Logic:    LogicOp(r.Intn(5)),
			Atom:     AtomOp(r.Intn(8)),
			Mufu:     MufuFunc(r.Intn(7)),
			Vote:     VoteMode(r.Intn(3)),
			Shfl:     ShflMode(r.Intn(4)),
			Unsigned: r.Intn(2) == 0, SetCC: r.Intn(2) == 0,
			X: r.Intn(2) == 0, E: r.Intn(2) == 0, NegB: r.Intn(2) == 0,
		},
		Injected: r.Intn(2) == 0,
	}
	randOpd := func() Operand {
		switch r.Intn(7) {
		case 0:
			return R(uint8(r.Intn(255)))
		case 1:
			return P(uint8(r.Intn(8)))
		case 2:
			return Imm(int64(int32(r.Uint32())))
		case 3:
			return CMem(0, int64(r.Intn(1024)))
		case 4:
			return Mem(uint8(r.Intn(255)), int64(r.Intn(256)))
		case 5:
			return SReg(SpecialReg(r.Intn(16)))
		default:
			return Label("L" + string(rune('a'+r.Intn(26))))
		}
	}
	for i := 0; i < r.Intn(3); i++ {
		in.Dsts = append(in.Dsts, randOpd())
	}
	for i := 0; i < r.Intn(4); i++ {
		in.Srcs = append(in.Srcs, randOpd())
	}
	return in
}

// TestKernelBinaryRoundtripQuick: serialize/deserialize preserves kernels
// with arbitrary instruction content.
func TestKernelBinaryRoundtripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := &Kernel{
			Name:    "k",
			NumRegs: r.Intn(255),
			Labels:  map[string]int{"entry": 0},
		}
		k.AddParam("a", 8)
		k.AddParam("n", 4)
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			k.Instrs = append(k.Instrs, randInstr(r))
		}
		data, err := k.MarshalBinary()
		if err != nil {
			return false
		}
		var back Kernel
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		return reflect.DeepEqual(k.Instrs, back.Instrs) &&
			reflect.DeepEqual(k.Params, back.Params) &&
			reflect.DeepEqual(k.Labels, back.Labels) &&
			k.NumRegs == back.NumRegs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var k Kernel
	if err := k.UnmarshalBinary([]byte("BOGUS")); err == nil {
		t.Error("garbage accepted")
	}
	if err := k.UnmarshalBinary([]byte("SASSKRN1\xff\xff\xff\xff")); err == nil {
		t.Error("truncated input accepted")
	}
}
