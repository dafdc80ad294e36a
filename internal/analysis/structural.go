package analysis

import (
	"fmt"

	"sassi/internal/sass"
)

// CheckStructure validates the static shape of a kernel: its resource
// fields by sass.Kernel.CheckResources and each instruction by
// sass.Kernel.CheckInstr, the rule sets the launch refuses a kernel by
// too, and the register figure CheckInstr returns for it within
// the kernel's allocation (NumRegs, or the MinRegs every launch gives a
// thread when the kernel states none); an instruction CheckInstr refuses
// gets that one finding and no other. Then the rules the launch does not
// check before it runs: a BRA/SSY/CAL label and a JCAL symbol present, an
// EXIT, and control unable to fall off the kernel end. Results that are
// entirely discarded (every destination RZ/PT) are flagged as warnings.
// It collects every finding with a position.
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

	if err := k.CheckResources(); err != nil {
		bad(-1, "%v", err)
	}
	n := len(k.Instrs)
	if n == 0 {
		bad(-1, "kernel has no instructions")
		return diags
	}

	regs := k.NumRegs
	if regs == 0 {
		regs = sass.MinRegs
	}
	sawExit := false
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op == sass.OpEXIT {
			sawExit = true
		}
		gprs, err := k.CheckInstr(i)
		if err != nil {
			bad(i, "%v", err)
			continue
		}
		if gprs > regs {
			bad(i, "R%d exceeds the kernel's register allocation (NumRegs=%d)", gprs-1, k.NumRegs)
		}

		switch in.Op {
		case sass.OpBRA, sass.OpSSY, sass.OpCAL:
			if t, ok := in.BranchTarget(); !ok || t.Kind != sass.OpdLabel {
				bad(i, "%s has no label operand", in.Op)
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
