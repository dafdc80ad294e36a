package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

// TestMissingOperandsRefusedAtLaunch: a kernel with an instruction one
// operand short of what its opcode always has — FADD R0, R1; an ISETP
// with one source; an IADD or a VOTE with no destination — is refused by
// Launch with an ErrInvalid KernelError before any CTA takes a slab, on the
// execution core and on the reference interpreter, where running it would
// index past the operands inside an SM goroutine. Kernel.Validate refuses
// it from the same table.
func TestMissingOperandsRefusedAtLaunch(t *testing.T) {
	for op := sass.Opcode(0); int(op) < sass.NumOpcodes(); op++ {
		dsts, srcs := op.MinOperands()
		for drop := 0; drop < dsts+srcs; drop++ {
			in := sass.Instruction{Guard: sass.Always, Op: op}
			for i := 0; i < dsts; i++ {
				if i != drop {
					in.Dsts = append(in.Dsts, sass.R(uint8(i)))
				}
			}
			for i := 0; i < srcs; i++ {
				if dsts+i != drop {
					in.Srcs = append(in.Srcs, sass.R(uint8(4+i)))
				}
			}
			k := &sass.Kernel{Name: "short", NumRegs: 16,
				Instrs: []sass.Instruction{in, sass.New(sass.OpEXIT, nil, nil)}}
			if err := k.Validate(); err == nil {
				t.Errorf("%s without operand %d: Validate accepts it", op, drop)
			}
			prog := sass.NewProgram()
			prog.AddKernel(k)
			for _, ref := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/drop%d/reference=%v", op, drop, ref), func(t *testing.T) {
					dev := sim.NewDevice(sim.MiniGPU())
					if ref {
						dev = refDevice(sim.MiniGPU())
					}
					_, err := dev.Launch(prog, "short", sim.LaunchParams{Grid: sim.D1(4), Block: sim.D1(64)})
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
	}
}
