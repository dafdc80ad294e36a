package sass

import "testing"

func TestOpcodeClassification(t *testing.T) {
	cases := []struct {
		op                                           Opcode
		mem, memR, memW, ctrl, sync, numeric, atomic bool
	}{
		{op: OpNOP},
		{op: OpIADD, numeric: true},
		{op: OpIMAD, numeric: true},
		{op: OpLOP, numeric: true},
		{op: OpSHL, numeric: true},
		{op: OpPOPC, numeric: true},
		{op: OpFADD, numeric: true},
		{op: OpFFMA, numeric: true},
		{op: OpMUFU, numeric: true},
		{op: OpF2I, numeric: true},
		{op: OpMOV},
		{op: OpS2R},
		{op: OpISETP},
		{op: OpLD, mem: true, memR: true},
		{op: OpST, mem: true, memW: true},
		{op: OpLDG, mem: true, memR: true},
		{op: OpSTG, mem: true, memW: true},
		{op: OpLDL, mem: true, memR: true},
		{op: OpSTL, mem: true, memW: true},
		{op: OpLDS, mem: true, memR: true},
		{op: OpSTS, mem: true, memW: true},
		{op: OpLDC, mem: true, memR: true},
		{op: OpATOM, mem: true, memR: true, memW: true, atomic: true},
		{op: OpATOMS, mem: true, memR: true, memW: true, atomic: true},
		{op: OpRED, mem: true, memW: true, atomic: true},
		{op: OpTLD, mem: true, memR: true},
		{op: OpBRA, ctrl: true},
		{op: OpSSY, sync: true},
		{op: OpSYNC, ctrl: true, sync: true},
		{op: OpCAL, ctrl: true},
		{op: OpJCAL, ctrl: true},
		{op: OpRET, ctrl: true},
		{op: OpEXIT, ctrl: true},
		{op: OpBAR, sync: true},
		{op: OpVOTE},
		{op: OpSHFL},
	}
	for _, c := range cases {
		if got := c.op.IsMem(); got != c.mem {
			t.Errorf("%s.IsMem() = %v, want %v", c.op, got, c.mem)
		}
		if got := c.op.IsMemRead(); got != c.memR {
			t.Errorf("%s.IsMemRead() = %v, want %v", c.op, got, c.memR)
		}
		if got := c.op.IsMemWrite(); got != c.memW {
			t.Errorf("%s.IsMemWrite() = %v, want %v", c.op, got, c.memW)
		}
		if got := c.op.IsControlXfer(); got != c.ctrl {
			t.Errorf("%s.IsControlXfer() = %v, want %v", c.op, got, c.ctrl)
		}
		if got := c.op.IsSync(); got != c.sync {
			t.Errorf("%s.IsSync() = %v, want %v", c.op, got, c.sync)
		}
		if got := c.op.IsNumeric(); got != c.numeric {
			t.Errorf("%s.IsNumeric() = %v, want %v", c.op, got, c.numeric)
		}
		if got := c.op.IsAtomic(); got != c.atomic {
			t.Errorf("%s.IsAtomic() = %v, want %v", c.op, got, c.atomic)
		}
	}
}

func TestOpcodeSpillOrFill(t *testing.T) {
	for op := Opcode(0); op < opCount; op++ {
		want := op == OpLDL || op == OpSTL
		if got := op.IsSpillOrFill(); got != want {
			t.Errorf("%s.IsSpillOrFill() = %v, want %v", op, got, want)
		}
	}
}

func TestOpcodeTexture(t *testing.T) {
	for op := Opcode(0); op < opCount; op++ {
		want := op == OpTLD
		if got := op.IsTexture(); got != want {
			t.Errorf("%s.IsTexture() = %v, want %v", op, got, want)
		}
	}
}

// namesRoundtrip inverts String over the values first..last and requires
// each name to map back to its own value: every value has a name of its
// own, so disassembly text identifies what it came from.
func namesRoundtrip[T interface {
	~uint8
	String() string
}](t *testing.T, first, last T) {
	t.Helper()
	byName := map[string]T{}
	for v := first; v <= last; v++ {
		name := v.String()
		if prev, dup := byName[name]; dup || name == "" {
			t.Errorf("%T %d is named %q, as is %d", v, v, name, prev)
		}
		byName[name] = v
	}
}

func TestOpcodeNamesRoundtrip(t *testing.T) { namesRoundtrip(t, 0, opCount-1) }

func TestCmpNamesRoundtrip(t *testing.T) {
	for c := CmpLT; c <= CmpNE; c++ {
		back, ok := CmpByName(c.String())
		if !ok || back != c {
			t.Errorf("cmp %v roundtrip failed", c)
		}
	}
}

func TestLogicNamesRoundtrip(t *testing.T) { namesRoundtrip(t, LogicAND, LogicNOT) }

func TestAtomNamesRoundtrip(t *testing.T) { namesRoundtrip(t, AtomADD, AtomCAS) }

func TestMufuNamesRoundtrip(t *testing.T) { namesRoundtrip(t, MufuRCP, MufuLG2) }

func TestVoteShflNamesRoundtrip(t *testing.T) {
	namesRoundtrip(t, VoteALL, VoteBALLOT)
	namesRoundtrip(t, ShflIDX, ShflBFLY)
}

func TestSpecialRegNamesRoundtrip(t *testing.T) { namesRoundtrip(t, SRLaneID, SRClock) }
