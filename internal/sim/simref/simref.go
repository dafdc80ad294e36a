// Package simref is the simulator's reference statement of ALU and SETP
// semantics: a lane-by-lane interpreter, written against sim's exported
// Thread API and a source-read callback alone, that the equivalence
// oracles — difftest's ref-* cells, TestPredecodedBitEqualAllWorkloads,
// the handler goldens, the instruction-semantics tests — compare the
// execution core's row kernels against bit for bit. It shares no code with
// them, so the two are independent statements of one semantics.
//
// Install attaches it to a device, whose launches then run the reference
// issue loop (sim.Device.Reference). Only internal/difftest and tests
// import this package, so no product binary but cmd/sassi-difftest links
// it.
package simref

import (
	"fmt"
	"math"
	"math/bits"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

// Install makes every launch on dev run the reference interpreter.
func Install(dev *sim.Device) { dev.Reference = execALU }

// execALU handles the arithmetic/logic/move family per lane.
func execALU(w *sim.Warp, in *sass.Instruction, exec uint32, src sim.SrcReader) error {
	var err error
	sim.Lanes(exec, func(l int) {
		if err != nil {
			return
		}
		err = execALULane(w.Thread(l), in, src)
	})
	return err
}

func execALULane(t *sim.Thread, in *sass.Instruction, src sim.SrcReader) error {
	get := func(i int) (uint32, error) {
		if i >= len(in.Srcs) {
			return 0, fmt.Errorf("%s: missing source %d", in.Op, i)
		}
		return src.ReadSrc(t, in.Srcs[i])
	}
	put := func(v uint32) {
		t.WriteReg(in.Dsts[0].Reg, v)
	}
	switch in.Op {
	case sass.OpIADD, sass.OpIADD32:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		if in.Mods.NegB {
			b = -b
		}
		sum := uint64(a) + uint64(b)
		if in.Mods.X && t.ReadCC()&sim.CCCarry != 0 {
			sum++
		}
		r := uint32(sum)
		if in.Mods.SetCC {
			cc := uint8(0)
			if r == 0 {
				cc |= sim.CCZero
			}
			if int32(r) < 0 {
				cc |= sim.CCSign
			}
			if sum>>32 != 0 {
				cc |= sim.CCCarry
			}
			if (a^b)&0x8000_0000 == 0 && (a^r)&0x8000_0000 != 0 {
				cc |= sim.CCOvf
			}
			t.WriteCC(cc)
		}
		put(r)

	case sass.OpIMUL:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		put(a * b)

	case sass.OpIMAD:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		c, err := get(2)
		if err != nil {
			return err
		}
		put(a*b + c)

	case sass.OpISCADD:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		sh, err := get(2)
		if err != nil {
			return err
		}
		put((a << (sh & 31)) + b)

	case sass.OpISETP:
		return execSetp(t, in, src, false)

	case sass.OpFSETP:
		return execSetp(t, in, src, true)

	case sass.OpIMNMX:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		takeMin := true
		if len(in.Srcs) > 2 && in.Srcs[2].Kind == sass.OpdPred {
			takeMin = pred(t, in.Srcs[2].Reg, in.Srcs[2].Neg)
		}
		var r uint32
		if in.Mods.Unsigned {
			if (a < b) == takeMin {
				r = a
			} else {
				r = b
			}
		} else {
			if (i32(a) < i32(b)) == takeMin {
				r = a
			} else {
				r = b
			}
		}
		put(r)

	case sass.OpLOP:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		switch in.Mods.Logic {
		case sass.LogicAND:
			put(a & b)
		case sass.LogicOR:
			put(a | b)
		case sass.LogicXOR:
			put(a ^ b)
		case sass.LogicPASS:
			put(b)
		case sass.LogicNOT:
			put(^b)
		}

	case sass.OpSHL:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		if b >= 32 {
			put(0)
		} else {
			put(a << b)
		}

	case sass.OpSHR:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		if in.Mods.Unsigned {
			if b >= 32 {
				put(0)
			} else {
				put(a >> b)
			}
		} else {
			if b >= 32 {
				b = 31
			}
			put(u32(i32(a) >> b))
		}

	case sass.OpBFE:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		pos := b & 0xff
		n := (b >> 8) & 0xff
		if n == 0 {
			put(0)
			break
		}
		if pos > 31 {
			pos = 31
		}
		if pos+n > 32 {
			n = 32 - pos
		}
		v := a >> pos
		if n < 32 {
			v &= (1 << n) - 1
		}
		if !in.Mods.Unsigned && n < 32 && v&(1<<(n-1)) != 0 {
			v |= ^uint32(0) << n
		}
		put(v)

	case sass.OpBFI:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		c, err := get(2)
		if err != nil {
			return err
		}
		pos := b & 0xff
		n := (b >> 8) & 0xff
		if pos > 31 {
			pos = 31
		}
		if pos+n > 32 {
			n = 32 - pos
		}
		maskv := uint32(0)
		if n > 0 {
			maskv = ((1 << n) - 1) << pos
		}
		put((c &^ maskv) | ((a << pos) & maskv))

	case sass.OpFLO:
		a, err := get(0)
		if err != nil {
			return err
		}
		if a == 0 {
			put(^uint32(0))
		} else {
			put(uint32(31 - bits.LeadingZeros32(a)))
		}

	case sass.OpPOPC:
		a, err := get(0)
		if err != nil {
			return err
		}
		put(uint32(bits.OnesCount32(a)))

	case sass.OpSEL:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		sel := in.Srcs[2]
		if pred(t, sel.Reg, sel.Neg) {
			put(a)
		} else {
			put(b)
		}

	case sass.OpMOV, sass.OpMOV32, sass.OpF2F:
		// F2F is a conversion that is value-preserving at our precision.
		a, err := get(0)
		if err != nil {
			return err
		}
		put(a)

	case sass.OpS2R:
		// The special register named, whatever the operand's kind.
		v, _ := src.ReadSrc(t, sass.SReg(in.Srcs[0].SR))
		put(v)

	case sass.OpP2R:
		// P2R moves the predicate file (or, with .X, the condition code)
		// into a GPR under a mask; SASSI's spill sequences rely on it.
		a, err := get(0)
		if err != nil {
			return err
		}
		maskv, err := get(1)
		if err != nil {
			return err
		}
		src := uint32(t.PredBits())
		if in.Mods.X {
			src = uint32(t.ReadCC())
		}
		put((a &^ maskv) | (src & maskv))

	case sass.OpR2P:
		a, err := get(0)
		if err != nil {
			return err
		}
		maskv, err := get(1)
		if err != nil {
			return err
		}
		if in.Mods.X {
			t.WriteCC((t.ReadCC() &^ uint8(maskv)) | (uint8(a) & uint8(maskv&0xf)))
			break
		}
		// PT (bit 7) is not writable.
		maskv &= 0x7f
		t.SetPredBits((t.PredBits() &^ uint8(maskv)) | (uint8(a) & uint8(maskv)))

	case sass.OpPSETP:
		pa := in.Srcs[0]
		pb := in.Srcs[1]
		a := pred(t, pa.Reg, pa.Neg)
		b := pred(t, pb.Reg, pb.Neg)
		var v bool
		switch in.Mods.Logic {
		case sass.LogicAND:
			v = a && b
		case sass.LogicOR:
			v = a || b
		case sass.LogicXOR:
			v = a != b
		default:
			v = a
		}
		t.WritePred(in.Dsts[0].Reg, v)

	case sass.OpFADD:
		return fbinop(t, in, src, func(a, b float32) float32 { return a + b })
	case sass.OpFMUL:
		return fbinop(t, in, src, func(a, b float32) float32 { return a * b })
	case sass.OpFFMA:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		c, err := get(2)
		if err != nil {
			return err
		}
		put(f32b(f32(a)*f32(b) + f32(c)))
	case sass.OpFMNMX:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		takeMin := true
		if len(in.Srcs) > 2 && in.Srcs[2].Kind == sass.OpdPred {
			takeMin = pred(t, in.Srcs[2].Reg, in.Srcs[2].Neg)
		}
		fa, fb := f32(a), f32(b)
		if (fa < fb) == takeMin {
			put(a)
		} else {
			put(b)
		}

	case sass.OpMUFU:
		a, err := get(0)
		if err != nil {
			return err
		}
		x := float64(f32(a))
		var r float64
		switch in.Mods.Mufu {
		case sass.MufuRCP:
			r = 1 / x
		case sass.MufuRSQ:
			r = 1 / math.Sqrt(x)
		case sass.MufuSQRT:
			r = math.Sqrt(x)
		case sass.MufuSIN:
			r = math.Sin(x)
		case sass.MufuCOS:
			r = math.Cos(x)
		case sass.MufuEX2:
			r = math.Exp2(x)
		case sass.MufuLG2:
			r = math.Log2(x)
		}
		put(f32b(float32(r)))

	case sass.OpF2I:
		a, err := get(0)
		if err != nil {
			return err
		}
		f := f32(a)
		switch {
		case math.IsNaN(float64(f)):
			put(0)
		case f >= math.MaxInt32:
			put(u32(math.MaxInt32))
		case f <= math.MinInt32:
			put(u32(math.MinInt32))
		default:
			put(u32(int32(f)))
		}

	case sass.OpI2F:
		a, err := get(0)
		if err != nil {
			return err
		}
		if in.Mods.Unsigned {
			put(f32b(float32(a)))
		} else {
			put(f32b(float32(i32(a))))
		}

	default:
		return fmt.Errorf("opcode %s not implemented", in.Op)
	}
	return nil
}

func fbinop(t *sim.Thread, in *sass.Instruction, src sim.SrcReader, f func(a, b float32) float32) error {
	a, err := src.ReadSrc(t, in.Srcs[0])
	if err != nil {
		return err
	}
	b, err := src.ReadSrc(t, in.Srcs[1])
	if err != nil {
		return err
	}
	fb := f32(b)
	if in.Mods.NegB {
		fb = -fb
	}
	t.WriteReg(in.Dsts[0].Reg, f32b(f(f32(a), fb)))
	return nil
}

// execSetp implements ISETP/FSETP: Pd = (a cmp b) LOGIC Pc, and optionally
// Pq = !(a cmp b) LOGIC Pc.
func execSetp(t *sim.Thread, in *sass.Instruction, src sim.SrcReader, float bool) error {
	a, err := src.ReadSrc(t, in.Srcs[0])
	if err != nil {
		return err
	}
	b, err := src.ReadSrc(t, in.Srcs[1])
	if err != nil {
		return err
	}
	var cmp bool
	if float {
		fa, fb := f32(a), f32(b)
		switch in.Mods.Cmp {
		case sass.CmpLT:
			cmp = fa < fb
		case sass.CmpLE:
			cmp = fa <= fb
		case sass.CmpGT:
			cmp = fa > fb
		case sass.CmpGE:
			cmp = fa >= fb
		case sass.CmpEQ:
			cmp = fa == fb
		case sass.CmpNE:
			cmp = fa != fb
		}
	} else if in.Mods.Unsigned {
		switch in.Mods.Cmp {
		case sass.CmpLT:
			cmp = a < b
		case sass.CmpLE:
			cmp = a <= b
		case sass.CmpGT:
			cmp = a > b
		case sass.CmpGE:
			cmp = a >= b
		case sass.CmpEQ:
			cmp = a == b
		case sass.CmpNE:
			cmp = a != b
		}
	} else {
		sa, sb := i32(a), i32(b)
		switch in.Mods.Cmp {
		case sass.CmpLT:
			cmp = sa < sb
		case sass.CmpLE:
			cmp = sa <= sb
		case sass.CmpGT:
			cmp = sa > sb
		case sass.CmpGE:
			cmp = sa >= sb
		case sass.CmpEQ:
			cmp = sa == sb
		case sass.CmpNE:
			cmp = sa != sb
		}
	}
	c := true
	if len(in.Srcs) > 2 && in.Srcs[2].Kind == sass.OpdPred {
		c = pred(t, in.Srcs[2].Reg, in.Srcs[2].Neg)
	}
	combine := func(x bool) bool {
		switch in.Mods.Logic {
		case sass.LogicAND:
			return x && c
		case sass.LogicOR:
			return x || c
		case sass.LogicXOR:
			return x != c
		}
		return x
	}
	t.WritePred(in.Dsts[0].Reg, combine(cmp))
	if len(in.Dsts) > 1 && in.Dsts[1].Kind == sass.OpdPred {
		t.WritePred(in.Dsts[1].Reg, combine(!cmp))
	}
	return nil
}

// pred evaluates predicate reg, complemented when neg, for thread t.
func pred(t *sim.Thread, reg uint8, neg bool) bool { return t.ReadPred(reg) != neg }

func f32(u uint32) float32  { return math.Float32frombits(u) }
func f32b(f float32) uint32 { return math.Float32bits(f) }
func i32(u uint32) int32    { return int32(u) }
func u32(i int32) uint32    { return uint32(i) }
