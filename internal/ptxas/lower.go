package ptxas

import (
	"fmt"

	"sassi/internal/ptx"
	"sassi/internal/sass"
)

// lowerer translates one allocated PTX function into SASS.
type lowerer struct {
	f *ptx.Func
	a *allocation
	k *sass.Kernel
}

func (lo *lowerer) gpr(v ptx.Value) uint8 {
	r, ok := lo.a.reg[v.ID()]
	if !ok {
		panic(fmt.Sprintf("ptxas: vreg %s has no GPR allocation", v))
	}
	return r
}

func (lo *lowerer) pr(v ptx.Value) uint8 {
	p, ok := lo.a.pred[v.ID()]
	if !ok {
		panic(fmt.Sprintf("ptxas: vreg %s has no predicate allocation", v))
	}
	return p
}

func (lo *lowerer) guardOf(in *ptx.Instr) sass.PredGuard {
	if !in.Guard.Valid() {
		return sass.Always
	}
	return sass.PredGuard{Reg: lo.pr(in.Guard), Neg: in.GuardNeg}
}

func (lo *lowerer) emit(in sass.Instruction) {
	lo.k.Instrs = append(lo.k.Instrs, in)
}

// srcB resolves the B operand (register or immediate).
func (lo *lowerer) srcB(in *ptx.Instr) sass.Operand {
	if in.HasImm {
		return sass.Imm(in.Imm)
	}
	return sass.R(lo.gpr(in.B))
}

func widthOf(bytes int) sass.Width {
	switch bytes {
	case 1:
		return sass.W8
	case 2:
		return sass.W16
	case 8:
		return sass.W64
	case 16:
		return sass.W128
	default:
		return sass.W32
	}
}

// lower translates the function body. Labels are recorded by name and
// resolved afterwards. It takes a function ptx.Func.Verify accepted, so
// every operand has the type and every Op the Type its case lowers.
func (lo *lowerer) lower() {
	lo.k.Labels = map[string]int{}
	for i := range lo.f.Instrs {
		lo.lowerInstr(&lo.f.Instrs[i])
	}
}

func (lo *lowerer) lowerInstr(in *ptx.Instr) {
	g := lo.guardOf(in)
	unsigned := in.Type == ptx.TU32 || in.Type == ptx.TU64
	emit := func(op sass.Opcode, mods sass.Mods, dsts, srcs []sass.Operand) {
		i := sass.Instruction{Guard: g, Op: op, Mods: mods, Dsts: dsts, Srcs: srcs}
		lo.emit(i)
	}

	switch in.Op {
	case ptx.OpLabel:
		lo.k.Labels[in.Label] = len(lo.k.Instrs)

	case ptx.OpBra:
		emit(sass.OpBRA, sass.Mods{}, nil, []sass.Operand{sass.Label(in.Label)})

	case ptx.OpSSY:
		emit(sass.OpSSY, sass.Mods{}, nil, []sass.Operand{sass.Label(in.Label)})

	case ptx.OpSync:
		emit(sass.OpSYNC, sass.Mods{}, nil, nil)

	case ptx.OpExit:
		emit(sass.OpEXIT, sass.Mods{}, nil, nil)

	case ptx.OpBar:
		emit(sass.OpBAR, sass.Mods{}, nil, nil)

	case ptx.OpTrap:
		// Store through a null generic pointer: guaranteed fault.
		emit(sass.OpST, sass.Mods{Width: sass.W32}, nil,
			[]sass.Operand{sass.Mem(sass.RZ, 0), sass.R(sass.RZ)})

	case ptx.OpLdParam:
		off, _ := lo.k.ParamOffset(in.Param)
		d := lo.gpr(in.Dst)
		emit(sass.OpMOV, sass.Mods{}, []sass.Operand{sass.R(d)},
			[]sass.Operand{sass.CMem(0, int64(off))})
		if in.Type == ptx.TU64 {
			emit(sass.OpMOV, sass.Mods{}, []sass.Operand{sass.R(d + 1)},
				[]sass.Operand{sass.CMem(0, int64(off+4))})
		}

	case ptx.OpMov:
		if in.Type == ptx.TPred {
			// Predicate copy via PSETP Pd = Pa AND PT.
			emit(sass.OpPSETP, sass.Mods{Logic: sass.LogicAND},
				[]sass.Operand{sass.P(lo.pr(in.Dst))},
				[]sass.Operand{sass.P(lo.pr(in.A)), sass.P(sass.PT)})
			return
		}
		d := lo.gpr(in.Dst)
		if in.HasImm {
			emit(sass.OpMOV32, sass.Mods{}, []sass.Operand{sass.R(d)},
				[]sass.Operand{sass.Imm(int64(int32(in.Imm)))})
			if in.Type == ptx.TU64 {
				emit(sass.OpMOV32, sass.Mods{}, []sass.Operand{sass.R(d + 1)},
					[]sass.Operand{sass.Imm(in.Imm >> 32)})
			}
			return
		}
		s := lo.gpr(in.A)
		emit(sass.OpMOV, sass.Mods{}, []sass.Operand{sass.R(d)}, []sass.Operand{sass.R(s)})
		if in.Type == ptx.TU64 {
			emit(sass.OpMOV, sass.Mods{}, []sass.Operand{sass.R(d + 1)}, []sass.Operand{sass.R(s + 1)})
		}

	case ptx.OpSreg:
		emit(sass.OpS2R, sass.Mods{}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.SReg(in.SR)})

	case ptx.OpAdd, ptx.OpSub:
		negB := in.Op == ptx.OpSub
		if in.Type == ptx.TF32 {
			emit(sass.OpFADD, sass.Mods{NegB: negB},
				[]sass.Operand{sass.R(lo.gpr(in.Dst))},
				[]sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in)})
			return
		}
		if in.Type == ptx.TU64 {
			d, a := lo.gpr(in.Dst), lo.gpr(in.A)
			var bLo, bHi sass.Operand
			if in.HasImm {
				bLo = sass.Imm(int64(int32(in.Imm)))
				bHi = sass.Imm(in.Imm >> 32)
			} else {
				b := lo.gpr(in.B)
				bLo, bHi = sass.R(b), sass.R(b+1)
			}
			emit(sass.OpIADD, sass.Mods{SetCC: true},
				[]sass.Operand{sass.R(d)}, []sass.Operand{sass.R(a), bLo})
			emit(sass.OpIADD, sass.Mods{X: true},
				[]sass.Operand{sass.R(d + 1)}, []sass.Operand{sass.R(a + 1), bHi})
			return
		}
		b := lo.srcB(in)
		if negB && in.HasImm {
			b = sass.Imm(-in.Imm)
			negB = false
		}
		emit(sass.OpIADD, sass.Mods{NegB: negB},
			[]sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), b})

	case ptx.OpMul:
		if in.Type == ptx.TF32 {
			emit(sass.OpFMUL, sass.Mods{}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
				[]sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in)})
			return
		}
		emit(sass.OpIMUL, sass.Mods{}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in)})

	case ptx.OpMad:
		if in.Type == ptx.TF32 {
			emit(sass.OpFFMA, sass.Mods{}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
				[]sass.Operand{sass.R(lo.gpr(in.A)), sass.R(lo.gpr(in.B)), sass.R(lo.gpr(in.C))})
			return
		}
		emit(sass.OpIMAD, sass.Mods{}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), sass.R(lo.gpr(in.B)), sass.R(lo.gpr(in.C))})

	case ptx.OpFma:
		emit(sass.OpFFMA, sass.Mods{}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), sass.R(lo.gpr(in.B)), sass.R(lo.gpr(in.C))})

	case ptx.OpMin, ptx.OpMax:
		sel := sass.P(sass.PT)
		if in.Op == ptx.OpMax {
			sel = sass.NotP(sass.PT)
		}
		op := sass.OpIMNMX
		if in.Type == ptx.TF32 {
			op = sass.OpFMNMX
		}
		emit(op, sass.Mods{Unsigned: unsigned}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in), sel})

	case ptx.OpAnd, ptx.OpOr, ptx.OpXor, ptx.OpNot:
		var logic sass.LogicOp
		var srcs []sass.Operand
		switch in.Op {
		case ptx.OpAnd:
			logic = sass.LogicAND
		case ptx.OpOr:
			logic = sass.LogicOR
		case ptx.OpXor:
			logic = sass.LogicXOR
		case ptx.OpNot:
			logic = sass.LogicNOT
			srcs = []sass.Operand{sass.R(sass.RZ), sass.R(lo.gpr(in.A))}
		}
		if srcs == nil {
			srcs = []sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in)}
		}
		emit(sass.OpLOP, sass.Mods{Logic: logic},
			[]sass.Operand{sass.R(lo.gpr(in.Dst))}, srcs)

	case ptx.OpShl:
		emit(sass.OpSHL, sass.Mods{}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in)})

	case ptx.OpShr:
		emit(sass.OpSHR, sass.Mods{Unsigned: in.Type != ptx.TS32},
			[]sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in)})

	case ptx.OpSetp:
		op := sass.OpISETP
		if in.Type == ptx.TF32 {
			op = sass.OpFSETP
		}
		emit(op, sass.Mods{Cmp: in.Cmp, Unsigned: in.Type == ptx.TU32, Logic: sass.LogicAND},
			[]sass.Operand{sass.P(lo.pr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in), sass.P(sass.PT)})

	case ptx.OpPAnd, ptx.OpPOr:
		logic := sass.LogicAND
		if in.Op == ptx.OpPOr {
			logic = sass.LogicOR
		}
		emit(sass.OpPSETP, sass.Mods{Logic: logic},
			[]sass.Operand{sass.P(lo.pr(in.Dst))},
			[]sass.Operand{sass.P(lo.pr(in.A)), sass.P(lo.pr(in.B))})

	case ptx.OpPNot:
		emit(sass.OpPSETP, sass.Mods{Logic: sass.LogicAND},
			[]sass.Operand{sass.P(lo.pr(in.Dst))},
			[]sass.Operand{sass.NotP(lo.pr(in.A)), sass.P(sass.PT)})

	case ptx.OpSel:
		emit(sass.OpSEL, sass.Mods{}, []sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), sass.R(lo.gpr(in.B)), sass.P(lo.pr(in.C))})

	case ptx.OpCvt:
		lo.lowerCvt(in, g)

	case ptx.OpMufu:
		emit(sass.OpMUFU, sass.Mods{Mufu: in.Mufu},
			[]sass.Operand{sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A))})

	case ptx.OpLd, ptx.OpSt:
		lo.lowerMem(in, g)

	case ptx.OpAtom:
		lo.lowerAtom(in, g)

	case ptx.OpVote:
		d := in.Dst
		var dst sass.Operand
		if in.Vote == sass.VoteBALLOT {
			dst = sass.R(lo.gpr(d))
		} else {
			dst = sass.P(lo.pr(d))
		}
		emit(sass.OpVOTE, sass.Mods{Vote: in.Vote}, []sass.Operand{dst},
			[]sass.Operand{sass.P(lo.pr(in.A))})

	case ptx.OpShfl:
		emit(sass.OpSHFL, sass.Mods{Shfl: sass.ShflIDX},
			[]sass.Operand{sass.P(sass.PT), sass.R(lo.gpr(in.Dst))},
			[]sass.Operand{sass.R(lo.gpr(in.A)), lo.srcB(in)})
	}
}

func (lo *lowerer) lowerCvt(in *ptx.Instr, g sass.PredGuard) {
	d := lo.gpr(in.Dst)
	a := lo.gpr(in.A)
	emit := func(op sass.Opcode, mods sass.Mods, dsts, srcs []sass.Operand) {
		lo.emit(sass.Instruction{Guard: g, Op: op, Mods: mods, Dsts: dsts, Srcs: srcs})
	}
	switch {
	case in.Type == ptx.TU64:
		emit(sass.OpMOV, sass.Mods{}, []sass.Operand{sass.R(d)}, []sass.Operand{sass.R(a)})
		if in.SrcType == ptx.TS32 {
			// Sign extend.
			emit(sass.OpSHR, sass.Mods{}, []sass.Operand{sass.R(d + 1)},
				[]sass.Operand{sass.R(a), sass.Imm(31)})
		} else {
			emit(sass.OpMOV32, sass.Mods{}, []sass.Operand{sass.R(d + 1)},
				[]sass.Operand{sass.Imm(0)})
		}
	case in.Type == ptx.TF32:
		emit(sass.OpI2F, sass.Mods{Unsigned: in.SrcType == ptx.TU32},
			[]sass.Operand{sass.R(d)}, []sass.Operand{sass.R(a)})
	default: // s32 from f32, the one other pair Verify admits
		emit(sass.OpF2I, sass.Mods{}, []sass.Operand{sass.R(d)}, []sass.Operand{sass.R(a)})
	}
}

func (lo *lowerer) lowerMem(in *ptx.Instr, g sass.PredGuard) {
	w := widthOf(in.Width)
	var op sass.Opcode
	var e bool
	switch in.Space {
	case ptx.SpGlobal:
		e = true
		if in.Op == ptx.OpLd {
			op = sass.OpLDG
		} else {
			op = sass.OpSTG
		}
	case ptx.SpGeneric:
		e = true
		if in.Op == ptx.OpLd {
			op = sass.OpLD
		} else {
			op = sass.OpST
		}
	case ptx.SpShared:
		if in.Op == ptx.OpLd {
			op = sass.OpLDS
		} else {
			op = sass.OpSTS
		}
	case ptx.SpLocal:
		if in.Op == ptx.OpLd {
			op = sass.OpLDL
		} else {
			op = sass.OpSTL
		}
	}
	ref := sass.Mem(lo.gpr(in.A), in.Imm)
	mods := sass.Mods{Width: w, E: e}
	if in.Op == ptx.OpLd {
		lo.emit(sass.Instruction{Guard: g, Op: op, Mods: mods,
			Dsts: []sass.Operand{sass.R(lo.gpr(in.Dst))},
			Srcs: []sass.Operand{ref}})
	} else {
		lo.emit(sass.Instruction{Guard: g, Op: op, Mods: mods,
			Srcs: []sass.Operand{ref, sass.R(lo.gpr(in.B))}})
	}
}

func (lo *lowerer) lowerAtom(in *ptx.Instr, g sass.PredGuard) {
	ref := sass.Mem(lo.gpr(in.A), in.Imm)
	srcs := []sass.Operand{ref, sass.R(lo.gpr(in.B))}
	if in.C.Valid() {
		srcs = append(srcs, sass.R(lo.gpr(in.C)))
	}
	var dsts []sass.Operand
	if in.Dst.Valid() {
		dsts = []sass.Operand{sass.R(lo.gpr(in.Dst))}
	}
	op := sass.OpATOM
	e := true
	if in.Space == ptx.SpShared {
		op = sass.OpATOMS
		e = false
	}
	lo.emit(sass.Instruction{Guard: g, Op: op,
		Mods: sass.Mods{Atom: in.Atom, Width: widthOf(in.Width), E: e,
			Unsigned: in.Type == ptx.TU32},
		Dsts: dsts, Srcs: srcs})
}
