package analysis

import (
	"fmt"

	"sassi/internal/sass"
)

// CheckStructure validates the static shape of a kernel: each
// instruction's opcode and operands by sass.Kernel.CheckInstr, the rule
// set the launch refuses a kernel by too, and the registers it names
// within the kernel's allocation; and then the kernel-level rules:
// branch/SSY/CAL targets resolved and in range (targets are instruction
// indices, so being "on an instruction boundary" is inherent — a decoded
// target outside [0,n] is the corruption this catches), a JCAL symbol, an
// EXIT, control cannot fall off the kernel end, and no opcodes the
// execution backend rejects (PBK/BRK). Results that are entirely discarded
// (every destination RZ/PT) are flagged as warnings. It collects every
// finding with a position.
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
		if err := k.CheckInstr(i); err != nil {
			bad(i, "%v", err)
			if int(in.Op) >= sass.NumOpcodes() {
				continue
			}
		}
		if in.Op == sass.OpEXIT {
			sawExit = true
		}
		if in.Op == sass.OpPBK || in.Op == sass.OpBRK {
			bad(i, "%s is not supported by the execution backend", in.Op)
		}
		checkAllocation(k, i, in, bad)

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

// checkAllocation reports the registers in names past k.NumRegs (SP
// aside), when the kernel states its count. This certifies the compiler's
// register allocation and is no operand rule: the launch gives every
// thread at least 16 registers, so it runs such a kernel, and only Verify
// refuses it.
func checkAllocation(k *sass.Kernel, i int, in *sass.Instruction, bad func(int, string, ...any)) {
	if k.NumRegs == 0 {
		return
	}
	for _, ops := range [...][]sass.Operand{in.Dsts, in.Srcs} {
		for j := range ops {
			o := &ops[j]
			if int(o.Reg) < k.NumRegs || o.Reg == sass.RZ || int(o.Reg) == sass.SP {
				continue
			}
			switch o.Kind {
			case sass.OpdReg:
				bad(i, "R%d exceeds the kernel's register allocation (NumRegs=%d)", o.Reg, k.NumRegs)
			case sass.OpdMem:
				bad(i, "address base R%d exceeds the kernel's register allocation (NumRegs=%d)", o.Reg, k.NumRegs)
			}
		}
	}
}
