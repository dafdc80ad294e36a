package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

// requireRefused requires a kernel of in and EXIT to be refused by
// sass.Kernel.CheckInstr and at launch (requireLaunchRefused).
func requireRefused(t *testing.T, name string, in sass.Instruction) {
	t.Helper()
	if _, err := badKernel(in).CheckInstr(0); err == nil {
		t.Errorf("%s: CheckInstr accepts it", name)
	}
	requireLaunchRefused(t, name, in)
}

// badKernel is in, then EXIT, in a kernel with 16 registers.
func badKernel(in sass.Instruction) *sass.Kernel {
	return &sass.Kernel{Name: "bad", NumRegs: 16,
		Instrs: []sass.Instruction{in, sass.New(sass.OpEXIT, nil, nil)}}
}

// requireLaunchRefused requires a kernel of in and EXIT to be refused, on
// the execution core and on the reference interpreter, by Launch with an
// ErrInvalid KernelError before any CTA takes a slab.
func requireLaunchRefused(t *testing.T, name string, in sass.Instruction) {
	t.Helper()
	prog := sass.NewProgram()
	prog.AddKernel(badKernel(in))
	for _, ref := range []bool{false, true} {
		t.Run(fmt.Sprintf("%s/reference=%v", name, ref), func(t *testing.T) {
			dev := sim.NewDevice(sim.MiniGPU())
			if ref {
				dev = refDevice(sim.MiniGPU())
			}
			_, err := dev.Launch(prog, "bad", sim.LaunchParams{Grid: sim.D1(4), Block: sim.D1(64)})
			var ke *sim.KernelError
			if !errors.As(err, &ke) || ke.Kind != sim.ErrInvalid {
				t.Errorf("launch error %v, want an ErrInvalid KernelError", err)
			}
			if n := dev.LiveSlabs(); n != 0 {
				t.Errorf("%d slabs taken", n)
			}
		})
	}
}

// wellFormed returns an instruction of op with the operands every form of
// it has: registers R0.. as destinations, R4.. as sources (a register at a
// position read as a predicate names the predicate of its number).
func wellFormed(t *testing.T, op sass.Opcode) sass.Instruction {
	t.Helper()
	dsts, srcs := op.MinOperands()
	in := sass.Instruction{Guard: sass.Always, Op: op}
	for i := 0; i < dsts; i++ {
		in.Dsts = append(in.Dsts, sass.R(uint8(i)))
	}
	for i := 0; i < srcs; i++ {
		in.Srcs = append(in.Srcs, sass.R(uint8(4+i)))
	}
	requireWellFormed(t, badKernel(in))
	return in
}

// TestMissingOperandsRefusedAtLaunch: a kernel with an instruction one
// operand short of what its opcode always has — FADD R0, R1; an ISETP
// with one source; an IADD or a VOTE with no destination — is refused by
// Launch with an ErrInvalid KernelError before any CTA takes a slab, on the
// execution core and on the reference interpreter, where running it would
// index past the operands inside an SM goroutine. Kernel.CheckInstr
// refuses it from the same table.
func TestMissingOperandsRefusedAtLaunch(t *testing.T) {
	for op := sass.Opcode(0); int(op) < sass.NumOpcodes(); op++ {
		if !op.Defined() {
			continue // no form to take an operand from (TestVerifyAgreesWithLaunch)
		}
		full := wellFormed(t, op)
		for drop := 0; drop < len(full.Dsts)+len(full.Srcs); drop++ {
			in := full.Clone()
			if drop < len(in.Dsts) {
				in.Dsts = append(in.Dsts[:drop], in.Dsts[drop+1:]...)
			} else {
				d := drop - len(in.Dsts)
				in.Srcs = append(in.Srcs[:d], in.Srcs[d+1:]...)
			}
			requireRefused(t, fmt.Sprintf("%s/drop%d", op, drop), in)
		}
	}
}

// TestMisreadOperandsRefusedAtLaunch: a kernel with an operand the
// simulator would misread is refused like one with an operand missing —
// at every operand position of every opcode a predicate past PT (ISETP
// P12, R1, R2), at every position read as a predicate a register that
// names none (PSETP P0, RZ, P1; SEL R0, R1, R2, R20), a guard past PT
// (@P9 MOV R0, R1), and a register past the kernel's count. Each used to
// index the predicate file or the register rows out of range inside an SM
// goroutine, on both loops, and kill the process. (CheckInstr refuses all
// but the last too.) A reserved opcode number, which names no operation,
// is refused the same way.
func TestMisreadOperandsRefusedAtLaunch(t *testing.T) {
	for op := sass.Opcode(0); int(op) < sass.NumOpcodes(); op++ {
		if !op.Defined() {
			requireRefused(t, fmt.Sprintf("%s/bare", op), sass.Instruction{Guard: sass.Always, Op: op})
			continue
		}
		full := wellFormed(t, op)
		in := full.Clone()
		in.Guard = sass.PredGuard{Reg: 9}
		requireRefused(t, fmt.Sprintf("%s/guardP9", op), in)
		for pos := 0; pos < len(full.Dsts)+len(full.Srcs); pos++ {
			set := func(o sass.Operand) sass.Instruction {
				in := full.Clone()
				if pos < len(in.Dsts) {
					in.Dsts[pos] = o
				} else {
					in.Srcs[pos-len(in.Dsts)] = o
				}
				return in
			}
			requireRefused(t, fmt.Sprintf("%s/pos%d/P9", op, pos), set(sass.Operand{Kind: sass.OpdPred, Reg: 9}))
			rz := set(sass.R(sass.RZ))
			if _, err := badKernel(rz).CheckInstr(0); err != nil { // a position read as a predicate
				requireRefused(t, fmt.Sprintf("%s/pos%d/RZ", op, pos), rz)
				requireRefused(t, fmt.Sprintf("%s/pos%d/R8", op, pos), set(sass.R(8)))
			}
		}
	}
	// CheckInstr does not judge the allocation: the launch gives every thread
	// at least 16 registers.
	past := map[string]sass.Instruction{
		"MOV R16":          sass.New(sass.OpMOV, []sass.Operand{sass.R(16)}, []sass.Operand{sass.R(1)}),
		"IADD R0, R1, R40": sass.New(sass.OpIADD, []sass.Operand{sass.R(0)}, []sass.Operand{sass.R(1), sass.R(40)}),
		"STL [R1], R20":    sass.New(sass.OpSTL, nil, []sass.Operand{sass.Mem(1, 0), sass.R(20)}),
		"LDS R0, [R30]":    sass.New(sass.OpLDS, []sass.Operand{sass.R(0)}, []sass.Operand{sass.Mem(30, 0)}),
	}
	for name, in := range past {
		requireLaunchRefused(t, name, in)
	}
}
