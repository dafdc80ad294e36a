package ptxas_test

import (
	"strings"
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
)

// pool is what a decoded kernel's operand bytes name: byte b picks
// pool[b % len(pool)], and slot 0 is no value.
var pool = [...]ptx.Type{ptx.TInvalid, ptx.TU32, ptx.TS32, ptx.TF32, ptx.TU64, ptx.TPred, ptx.TU32, ptx.TU64, ptx.TPred}

// Pool slots the seed kernels name.
const (
	none byte = iota
	u32
	s32
	f32
	u64
	pred
	u32b
	u64b
)

// instrBytes is one decoded instruction: op, type, source type, dst, a, b,
// c, guard (low nibble; 0x10 negates it, 0x20 sets HasImm), the immediate,
// and a mode byte (bits 0-1 space, 2-3 width, 4-7 the op's comparison,
// atomic, function, vote, special register, label or parameter).
const instrBytes = 10

// row encodes one instruction for decodeFunc.
func row(op ptx.Op, t, src ptx.Type, dst, a, b, c, guard byte, imm int8, mode byte) []byte {
	return []byte{byte(op), byte(t), byte(src), dst, a, b, c, guard, byte(imm), mode}
}

// decodeFunc builds a kernel with parameters p (8 bytes) and n (4 bytes)
// from data through Func.Emit, one instruction per instrBytes, and ends it
// with exit. Every field takes any value, in range or not.
func decodeFunc(data []byte) *ptx.Func {
	f := ptx.NewFunc("fuzz")
	f.AddParam("p", 8)
	f.AddParam("n", 4)
	var vals [len(pool)]ptx.Value
	for i, t := range pool[1:] {
		vals[i+1] = f.NewValue(t)
	}
	val := func(b byte) ptx.Value { return vals[int(b)%len(vals)] }
	for ; len(data) >= instrBytes; data = data[instrBytes:] {
		d, m := data, data[9]>>4
		f.Emit(ptx.Instr{
			Op: ptx.Op(d[0]), Type: ptx.Type(d[1]), SrcType: ptx.Type(d[2]),
			Dst: val(d[3]), A: val(d[4]), B: val(d[5]), C: val(d[6]),
			Guard: val(d[7] & 15), GuardNeg: d[7]&0x10 != 0, HasImm: d[7]&0x20 != 0,
			Imm:   int64(int8(d[8])),
			Space: ptx.Space(d[9] & 3), Width: [...]int{4, 1, 8, 2}[d[9]>>2&3],
			Cmp: sass.CmpOp(m), Atom: sass.AtomOp(m), Mufu: sass.MufuFunc(m), Vote: sass.VoteMode(m), SR: sass.SpecialReg(m),
			Label: [...]string{"L0", "L1"}[m&1], Param: [...]string{"p", "n"}[m&1],
		})
	}
	f.Emit(ptx.Instr{Op: ptx.OpExit})
	return f
}

// The defect kernels: each passed Func.Verify and then panicked in ptxas
// or compiled to wrong SASS; Verify or ptxas now refuses it.
var defectKernels = []struct {
	name, wantErr string
	rows          [][]byte
}{
	{"add of a predicate", "operand a is pred, not u32", [][]byte{
		row(ptx.OpLdParam, ptx.TU32, 0, u32, none, none, none, none, 0, 0x10),
		row(ptx.OpSetp, ptx.TU32, 0, pred, u32, none, none, 0x20, 4, 0),
		row(ptx.OpAdd, ptx.TU32, 0, u32b, pred, none, none, 0x20, 1, 0),
		row(ptx.OpLdParam, ptx.TU64, 0, u64, none, none, none, none, 0, 0),
		row(ptx.OpSt, ptx.TU32, 0, none, u64, u32b, none, none, 0, 1),
	}},
	// Lowered as IADD.CC R0; IADD.X R1: the high half went to the stack
	// pointer.
	{"u64 add into a u32", "destination is u32, not u64", [][]byte{
		row(ptx.OpLdParam, ptx.TU64, 0, u64, none, none, none, none, 0, 0),
		row(ptx.OpAdd, ptx.TU64, 0, u32, u64, none, none, 0x20, 4, 0),
		row(ptx.OpSt, ptx.TU32, 0, none, u64, u32, none, none, 0, 1),
	}},
	// Lowered as a 32-bit SHL: the address's high word was whatever the
	// pair's odd register held.
	{"u64 shl", "shl.u64 is not implemented", [][]byte{
		row(ptx.OpLdParam, ptx.TU64, 0, u64, none, none, none, none, 0, 0),
		row(ptx.OpSreg, ptx.TU32, 0, u32, none, none, none, none, 0, 0x10),
		row(ptx.OpShl, ptx.TU64, 0, u64b, u64, none, none, 0x20, 2, 0),
		row(ptx.OpSt, ptx.TU32, 0, none, u64b, u32, none, none, 0, 1),
	}},
	{"mov d, d", "read before it is defined", [][]byte{
		row(ptx.OpLdParam, ptx.TU64, 0, u64, none, none, none, none, 0, 0),
		row(ptx.OpMov, ptx.TU32, 0, u32, u32, none, none, none, 0, 0),
		row(ptx.OpSt, ptx.TU32, 0, none, u64, u32, none, none, 0, 1),
	}},
	{"mov a, b; mov b, a", "read before it is defined", [][]byte{
		row(ptx.OpLdParam, ptx.TU64, 0, u64, none, none, none, none, 0, 0),
		row(ptx.OpMov, ptx.TU32, 0, u32, u32b, none, none, none, 0, 0),
		row(ptx.OpMov, ptx.TU32, 0, u32b, u32, none, none, none, 0, 0),
		row(ptx.OpSt, ptx.TU32, 0, none, u64, u32b, none, none, 0, 1),
	}},
}

// verifyAndCompile verifies f and compiles what Verify accepts.
func verifyAndCompile(f *ptx.Func) error {
	if err := f.Verify(); err != nil {
		return err
	}
	m := ptx.NewModule()
	m.Add(f)
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err == nil && prog == nil {
		panic("no program and no error")
	}
	return err
}

// TestDefectKernelsRefused: each defect kernel is refused with its error.
func TestDefectKernelsRefused(t *testing.T) {
	for _, c := range defectKernels {
		err := verifyAndCompile(decodeFunc(join(c.rows)))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}

func join(rows [][]byte) []byte {
	var b []byte
	for _, r := range rows {
		b = append(b, r...)
	}
	return b
}

// FuzzCompileFunc: whatever Func.Verify accepts, ptxas compiles to a
// program or refuses with an error, never a panic or a hang.
func FuzzCompileFunc(f *testing.F) {
	for _, c := range defectKernels {
		f.Add(join(c.rows))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		verifyAndCompile(decodeFunc(data))
	})
}
