package sass

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Summary-word encoding. SASSI passes each instrumented instruction's static
// properties to handlers as a single word (the paper's insEncoding field).
// The layout is:
//
//	bits  0..7   opcode
//	bits  8..15  class flags (mem, memRead, memWrite, ctrlXfer, sync,
//	             numeric, texture, spillOrFill)
//	bits 16..20  log2-ish width code (bytes)
//	bit  21      guarded (instruction carries a non-trivial predicate)
//	bits 22..24  guard register
//	bit  25      guard negated
//	bit  26      sets CC
//	bit  27      atomic
type summaryBits uint32

// Class flag bits within the summary word.
const (
	sumMem uint32 = 1 << (8 + iota)
	sumMemRead
	sumMemWrite
	sumCtrlXfer
	sumSync
	sumNumeric
	sumTexture
	sumSpillFill
)

// EncodeSummary packs the instruction's opcode and static classification
// into one word, the value handlers receive as the instruction encoding.
func EncodeSummary(in *Instruction) uint32 {
	w := uint32(in.Op)
	if in.Op.IsMem() {
		w |= sumMem
	}
	if in.Op.IsMemRead() {
		w |= sumMemRead
	}
	if in.Op.IsMemWrite() {
		w |= sumMemWrite
	}
	if in.Op.IsControlXfer() {
		w |= sumCtrlXfer
	}
	if in.Op.IsSync() {
		w |= sumSync
	}
	if in.Op.IsNumeric() {
		w |= sumNumeric
	}
	if in.Op.IsTexture() {
		w |= sumTexture
	}
	if in.Op.IsSpillOrFill() {
		w |= sumSpillFill
	}
	w |= uint32(in.Mods.Width.Bytes()&0x1f) << 16
	if !in.Guard.IsAlways() {
		w |= 1 << 21
		w |= uint32(in.Guard.Reg&0x7) << 22
		if in.Guard.Neg {
			w |= 1 << 25
		}
	}
	if in.Mods.SetCC {
		w |= 1 << 26
	}
	if in.Op.IsAtomic() {
		w |= 1 << 27
	}
	return w
}

// SummaryOpcode extracts the opcode from a summary word.
func SummaryOpcode(w uint32) Opcode { return Opcode(w & 0xff) }

// Summary classification helpers used by handler-side params objects.
func SummaryIsMem(w uint32) bool       { return w&sumMem != 0 }
func SummaryIsMemRead(w uint32) bool   { return w&sumMemRead != 0 }
func SummaryIsMemWrite(w uint32) bool  { return w&sumMemWrite != 0 }
func SummaryIsCtrlXfer(w uint32) bool  { return w&sumCtrlXfer != 0 }
func SummaryIsSync(w uint32) bool      { return w&sumSync != 0 }
func SummaryIsNumeric(w uint32) bool   { return w&sumNumeric != 0 }
func SummaryIsTexture(w uint32) bool   { return w&sumTexture != 0 }
func SummaryIsSpillFill(w uint32) bool { return w&sumSpillFill != 0 }
func SummaryIsAtomic(w uint32) bool    { return w&(1<<27) != 0 }
func SummaryIsGuarded(w uint32) bool   { return w&(1<<21) != 0 }

// Binary serialization of compiled kernels, so that cmd tools can cache
// compiled+instrumented programs on disk ("cubin" analog).

const kernelMagic = "SASSKRN1"

// Fixed byte counts of the format: an instruction is an 11-byte header plus
// two operand-count bytes, an operand 13 bytes plus its name's length word.
const (
	instrHeaderBytes = 11
	minInstrBytes    = instrHeaderBytes + 2
	operandBytes     = 13
	minOperandBytes  = operandBytes + 4
)

// MarshalBinary serializes the kernel to a compact byte format. Labels are
// written in name order, so equal kernels have equal encodings.
func (k *Kernel) MarshalBinary() ([]byte, error) {
	names := make([]string, 0, len(k.Labels))
	size := len(kernelMagic) + 4 + len(k.Name) + 4*7
	for _, p := range k.Params {
		size += 12 + len(p.Name)
	}
	for name := range k.Labels {
		names = append(names, name)
		size += 8 + len(name)
	}
	sort.Strings(names)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		size += minInstrBytes + minOperandBytes*(len(in.Dsts)+len(in.Srcs))
		for _, o := range in.Dsts {
			size += len(o.Name)
		}
		for _, o := range in.Srcs {
			size += len(o.Name)
		}
	}
	b := make([]byte, 0, size)
	b = append(b, kernelMagic...)
	b = appendStr(b, k.Name)
	b = appendInt(b, k.NumRegs)
	b = appendInt(b, k.NumPreds)
	b = appendInt(b, k.SharedBytes)
	b = appendInt(b, k.LocalBytes)
	b = appendInt(b, len(k.Params))
	for _, p := range k.Params {
		b = appendStr(b, p.Name)
		b = appendInt(b, p.Size)
		b = appendInt(b, p.Offset)
	}
	b = appendInt(b, len(names))
	for _, name := range names {
		b = appendStr(b, name)
		b = appendInt(b, k.Labels[name])
	}
	b = appendInt(b, len(k.Instrs))
	for i := range k.Instrs {
		b = appendInstr(b, &k.Instrs[i])
	}
	return b, nil
}

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func appendStr(b []byte, s string) []byte {
	return append(appendInt(b, len(s)), s...)
}

func flagBits(flags ...bool) byte {
	var b byte
	for i, f := range flags {
		if f {
			b |= 1 << i
		}
	}
	return b
}

func appendInstr(b []byte, in *Instruction) []byte {
	m := &in.Mods
	b = append(b, byte(in.Op), in.Guard.Reg, flagBits(in.Guard.Neg, in.Injected),
		byte(m.Width), byte(m.Cmp), byte(m.Logic), byte(m.Atom), byte(m.Mufu),
		byte(m.Vote), byte(m.Shfl), flagBits(m.Unsigned, m.SetCC, m.X, m.E, m.NegB))
	for _, ops := range [2][]Operand{in.Dsts, in.Srcs} {
		b = append(b, byte(len(ops)))
		for i := range ops {
			o := &ops[i]
			b = append(b, byte(o.Kind), o.Reg, flagBits(o.Neg), o.Bank, byte(o.SR))
			b = binary.LittleEndian.AppendUint64(b, uint64(o.Imm))
			b = appendStr(b, o.Name)
		}
	}
	return b
}

// KernelDecoder reads the instruction stream of a MarshalBinary encoding one
// instruction at a time, straight from the input bytes.
type KernelDecoder struct {
	data []byte
	off  int
	// err is the first decoding error; once set, every read yields zero.
	err  error
	n, i int // instructions declared, instructions decoded
	// names interns label and symbol names: an instrumented kernel repeats
	// its handler symbol at every site.
	names map[string]string
	// arena backs the operand lists Next cannot fit into the instruction it
	// is handed (UnmarshalBinary: all of them).
	arena []Operand
}

func (d *KernelDecoder) remaining() int { return len(d.data) - d.off }

// take returns the next n input bytes, or nil after an error.
func (d *KernelDecoder) take(n int) []byte {
	if d.err == nil && n > d.remaining() {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil
	}
	d.off += n
	return d.data[d.off-n : d.off]
}

func (d *KernelDecoder) int() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b))
}

// count reads an element count and caps it by the bytes actually
// remaining, so a corrupted count cannot drive a huge allocation before the
// element reads fail.
func (d *KernelDecoder) count(what string, minSize int) int {
	n := d.int()
	if d.err == nil && (n < 0 || n*minSize > d.remaining()) {
		d.err = fmt.Errorf("%s count %d exceeds remaining input (%d bytes)", what, n, d.remaining())
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *KernelDecoder) str() string {
	n := d.int()
	if d.err == nil && (n < 0 || n > d.remaining()) {
		d.err = fmt.Errorf("string length %d exceeds remaining input", n)
	}
	b := d.take(n)
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

// DecodeKernelHeader decodes everything in a MarshalBinary encoding that
// precedes the instruction stream into k, leaving k.Instrs alone, and
// returns a decoder positioned at the first instruction.
func DecodeKernelHeader(data []byte, k *Kernel) (KernelDecoder, error) {
	d := KernelDecoder{data: data, names: map[string]string{}}
	if string(d.take(len(kernelMagic))) != kernelMagic {
		return d, errors.New("bad kernel magic")
	}
	k.Name = d.str()
	k.NumRegs, k.NumPreds, k.SharedBytes, k.LocalBytes = d.int(), d.int(), d.int(), d.int()
	k.Params = make([]ParamDesc, d.count("param", 12))
	for i := range k.Params {
		k.Params[i] = ParamDesc{Name: d.str(), Size: d.int(), Offset: d.int()}
	}
	nl := d.count("label", 8)
	k.Labels = make(map[string]int, nl)
	for i := 0; i < nl && d.err == nil; i++ {
		name := d.str()
		k.Labels[name] = d.int()
	}
	d.n = d.count("instruction", minInstrBytes)
	return d, d.err
}

// Len returns the number of instructions not yet decoded.
func (d *KernelDecoder) Len() int { return d.n - d.i }

// Next decodes the next instruction into in, overwriting every field.
// Operand lists reuse in's own slices where they have the capacity, so a
// caller that hands the same instruction to every call decodes a whole
// kernel into one scratch value.
func (d *KernelDecoder) Next(in *Instruction) error {
	if d.i == d.n {
		return io.EOF
	}
	if hdr := d.take(instrHeaderBytes); hdr != nil {
		dsts, srcs := in.Dsts, in.Srcs
		*in = Instruction{
			Op:       Opcode(hdr[0]),
			Guard:    PredGuard{Reg: hdr[1], Neg: hdr[2]&1 != 0},
			Injected: hdr[2]&2 != 0,
			Mods: Mods{
				Width: Width(hdr[3]), Cmp: CmpOp(hdr[4]), Logic: LogicOp(hdr[5]),
				Atom: AtomOp(hdr[6]), Mufu: MufuFunc(hdr[7]), Vote: VoteMode(hdr[8]),
				Shfl:     ShflMode(hdr[9]),
				Unsigned: hdr[10]&1 != 0, SetCC: hdr[10]&2 != 0, X: hdr[10]&4 != 0,
				E: hdr[10]&8 != 0, NegB: hdr[10]&16 != 0,
			},
		}
		in.Dsts = d.operands(dsts)
		in.Srcs = d.operands(srcs)
	}
	if d.err != nil {
		return fmt.Errorf("instr %d: %w", d.i, d.err)
	}
	d.i++
	return nil
}

// operands decodes one operand list into old's backing array if it is large
// enough, else into a cap == len slice of the arena (so that an append to
// one list can never write into its neighbour), else into a fresh slice.
func (d *KernelDecoder) operands(old []Operand) []Operand {
	n := 0
	if nb := d.take(1); nb != nil {
		n = int(nb[0])
	}
	if d.err == nil && n*minOperandBytes > d.remaining() {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil
	}
	ops := old[:0]
	switch {
	case n <= cap(old):
		ops = old[:n]
	case n <= cap(d.arena)-len(d.arena):
		end := len(d.arena) + n
		ops = d.arena[len(d.arena):end:end]
		d.arena = d.arena[:end]
	default:
		ops = make([]Operand, n)
	}
	for i := range ops {
		raw := d.take(operandBytes)
		if raw == nil {
			return nil
		}
		ops[i] = Operand{
			Kind: OperandKind(raw[0]),
			Reg:  raw[1],
			Neg:  raw[2] != 0,
			Bank: raw[3],
			SR:   SpecialReg(raw[4]),
			Imm:  int64(binary.LittleEndian.Uint64(raw[5:])),
			Name: d.str(),
		}
	}
	return ops
}

// UnmarshalBinary deserializes a kernel written by MarshalBinary.
func (k *Kernel) UnmarshalBinary(data []byte) error {
	d, err := DecodeKernelHeader(data, k)
	if err != nil {
		return err
	}
	// Every instruction still to come takes minInstrBytes and every operand
	// minOperandBytes, which bounds the operand count from the input size.
	k.Instrs = make([]Instruction, d.n)
	d.arena = make([]Operand, 0, (d.remaining()-minInstrBytes*d.n)/minOperandBytes)
	for i := range k.Instrs {
		if err := d.Next(&k.Instrs[i]); err != nil {
			return err
		}
	}
	return nil
}
