package analysis

import (
	"fmt"

	"sassi/internal/sass"
)

// CheckStructure validates the static shape of a kernel: opcodes defined,
// operand kinds and register numbers legal, branch/SSY/CAL targets
// resolved and in range (targets are instruction indices, so being "on an
// instruction boundary" is inherent — a decoded target outside [0,n] is
// the corruption this catches), control cannot fall off the kernel end,
// and no opcodes the execution backend rejects (PBK/BRK). Results that
// are entirely discarded (every destination RZ/PT) are flagged as
// warnings.
//
// Unlike Kernel.Validate, which returns the first problem as an error,
// this pass collects every finding with a position.
func CheckStructure(k *sass.Kernel) []Diagnostic {
	var diags []Diagnostic
	bad := func(i int, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Sev: Error, Check: CheckStructural, Kernel: k.Name, Instr: i,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	warn := func(i int, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Sev: Warning, Check: CheckStructural, Kernel: k.Name, Instr: i,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	n := len(k.Instrs)
	if n == 0 {
		bad(-1, "kernel has no instructions")
		return diags
	}

	sawExit := false
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if int(in.Op) >= sass.NumOpcodes() {
			bad(i, "undefined opcode %d", in.Op)
			continue
		}
		if in.Op == sass.OpEXIT {
			sawExit = true
		}
		if in.Op == sass.OpPBK || in.Op == sass.OpBRK {
			bad(i, "%s is not supported by the execution backend", in.Op)
		}
		if !in.Guard.IsAlways() && in.Guard.Reg > sass.PT {
			bad(i, "guard references undefined predicate P%d", in.Guard.Reg)
		}
		checkOperands(k, i, in, bad)

		switch in.Op {
		case sass.OpBRA, sass.OpSSY, sass.OpCAL:
			if t, ok := in.BranchTarget(); !ok || t.Kind != sass.OpdLabel {
				bad(i, "%s has no label operand", in.Op)
			} else if t.Imm < 0 {
				bad(i, "%s target label %q is unresolved", in.Op, t.Name)
			} else if t.Imm > int64(n) {
				bad(i, "%s target %d is past the kernel end (%d instructions)", in.Op, t.Imm, n)
			}
		case sass.OpJCAL:
			hasSym := false
			for _, s := range in.Srcs {
				if s.Kind == sass.OpdSym {
					hasSym = true
				}
			}
			if !hasSym {
				bad(i, "JCAL has no symbol operand")
			}
		}

		if nd := len(in.Dsts); nd > 0 && !in.Op.IsMem() && !in.Op.IsAtomic() {
			discarded := true
			for _, d := range in.Dsts {
				switch d.Kind {
				case sass.OpdReg:
					if d.Reg != sass.RZ {
						discarded = false
					}
				case sass.OpdPred:
					if d.Reg != sass.PT {
						discarded = false
					}
				default:
					discarded = false
				}
			}
			if discarded {
				warn(i, "result is discarded (every destination is RZ/PT)")
			}
		}
	}

	if !sawExit {
		bad(-1, "kernel has no EXIT instruction")
	}

	// Control must not run past the last instruction. Only an
	// unconditional control transfer (or EXIT) terminates the final path;
	// a guarded one falls through when the guard fails.
	last := &k.Instrs[n-1]
	switch {
	case last.Guard.IsAlways() &&
		(last.Op == sass.OpEXIT || last.Op == sass.OpRET ||
			last.Op == sass.OpBRA || last.Op == sass.OpSYNC):
		// Terminated.
	default:
		bad(n-1, "control can fall off the kernel end (last instruction is not an unconditional EXIT/BRA/RET/SYNC)")
	}
	return diags
}

// checkOperands validates one instruction's operand encodings.
func checkOperands(k *sass.Kernel, i int, in *sass.Instruction, bad func(int, string, ...any)) {
	n := len(k.Instrs)
	w := in.Mods.Width
	switch w {
	case 0, sass.W8, sass.W16, sass.W32, sass.W64, sass.W128:
	default:
		bad(i, "undefined width modifier %d", w)
		w = sass.W32
	}
	// Operands are numbered across both lists, destinations first.
	for oi := 0; oi < len(in.Dsts)+len(in.Srcs); oi++ {
		isDst := oi < len(in.Dsts)
		var o sass.Operand
		if isDst {
			o = in.Dsts[oi]
		} else {
			o = in.Srcs[oi-len(in.Dsts)]
		}
		switch o.Kind {
		case sass.OpdNone:
			bad(i, "operand %d is missing", oi)
		case sass.OpdReg:
			// Every uint8 names a real register (R0..R254 plus RZ=255),
			// but a multi-register access must not run off the file.
			wide := (isDst && in.Op.IsMemRead()) ||
				(!isDst && in.Op.IsMemWrite() && oi-len(in.Dsts) > 0)
			if o.Reg != sass.RZ && wide {
				if int(o.Reg)+w.Regs()-1 >= sass.NumGPR {
					bad(i, "R%d..R%d register group runs past the register file", o.Reg, int(o.Reg)+w.Regs()-1)
				}
			}
			if o.Reg != sass.RZ && int(o.Reg) != sass.SP && int(o.Reg) >= k.NumRegs && k.NumRegs > 0 {
				bad(i, "R%d exceeds the kernel's register allocation (NumRegs=%d)", o.Reg, k.NumRegs)
			}
		case sass.OpdPred:
			if o.Reg > sass.PT {
				bad(i, "undefined predicate P%d", o.Reg)
			}
		case sass.OpdMem:
			if o.Reg != sass.RZ && in.Mods.E && int(o.Reg)+1 >= sass.NumGPR {
				bad(i, "64-bit address pair R%d..R%d runs past the register file", o.Reg, int(o.Reg)+1)
			}
			if o.Reg != sass.RZ && int(o.Reg) != sass.SP && int(o.Reg) >= k.NumRegs && k.NumRegs > 0 {
				bad(i, "address base R%d exceeds the kernel's register allocation (NumRegs=%d)", o.Reg, k.NumRegs)
			}
		case sass.OpdLabel:
			if o.Imm < 0 || o.Imm > int64(n) {
				bad(i, "label %q resolves outside the kernel (%d of %d instructions)", o.Name, o.Imm, n)
			}
		case sass.OpdImm, sass.OpdCMem, sass.OpdSReg, sass.OpdSym:
			// Always well-formed as encoded.
		default:
			bad(i, "undefined operand kind %d", o.Kind)
		}
	}
}
