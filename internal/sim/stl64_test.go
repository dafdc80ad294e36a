package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sassi/internal/mem"
	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
)

// stepWarp builds CTA 0 of a one-CTA launch of prog's first kernel and
// steps its first warp until it is done or fails, on the core or, with ref,
// on the reference interpreter, whose local stores go lane by lane. It
// returns the error and every lane's whole stack as the warp left it.
func stepWarp(t *testing.T, ref bool, prog *sass.Program, threads, stack int) (error, [][]byte) {
	t.Helper()
	cfg := sim.MiniGPU()
	cfg.DefaultStackBytes = stack
	d := sim.NewDevice(cfg)
	if ref {
		simref.Install(d)
	}
	w, _, err := sim.StepFirstWarp(t, d, prog, sim.LaunchParams{Grid: sim.D1(1), Block: sim.D1(threads)})
	stacks := make([][]byte, threads)
	for l := range stacks {
		stacks[l] = make([]byte, stack)
		if rerr := w.Thread(l).ReadLocal(0, stacks[l]); rerr != nil {
			t.Fatal(rerr)
		}
	}
	return err, stacks
}

// TestUniformSTL64: an 8-byte STL at one offset for every lane is two row
// copies after one bounds check covering all eight bytes. At an offset
// whose first word is in bounds and whose second is not, it must fault as
// the lane-by-lane stores do — the same *mem.Fault, field for field — and
// write nothing, in a full warp and in a partial one; in bounds, it must
// leave every lane's stack as they do.
func TestUniformSTL64(t *testing.T) {
	const stack = 64
	r := sass.R
	build := func(off int64) *sass.Program {
		k := &sass.Kernel{Name: "st64", NumRegs: 16, Labels: map[string]int{}}
		k.Instrs = []sass.Instruction{
			sass.New(sass.OpS2R, []sass.Operand{r(4)}, []sass.Operand{sass.SReg(sass.SRLaneID)}),
			sass.New(sass.OpIADD32, []sass.Operand{r(5)}, []sass.Operand{r(4), sass.Imm(0x100)}),
			// What the store would overwrite holds each lane's marker.
			{Guard: sass.Always, Op: sass.OpSTL, Srcs: []sass.Operand{sass.Mem(sass.RZ, stack-8), r(5)}},
			{Guard: sass.Always, Op: sass.OpSTL, Srcs: []sass.Operand{sass.Mem(sass.RZ, stack-4), r(5)}},
			{Guard: sass.Always, Op: sass.OpSTL, Mods: sass.Mods{Width: sass.W64},
				Srcs: []sass.Operand{sass.Mem(sass.RZ, off), r(4)}},
			sass.New(sass.OpEXIT, nil, nil),
		}
		prog := sass.NewProgram()
		prog.AddKernel(k)
		return prog
	}
	le32 := func(b []byte) uint32 { return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24 }
	for _, threads := range []int{32, 13} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			// Out of bounds by its second word: the same fault, nothing written.
			err, stacks := stepWarp(t, false, build(stack-4), threads, stack)
			wantErr, wantStacks := stepWarp(t, true, build(stack-4), threads, stack)
			var got, want *mem.Fault
			if !errors.As(err, &got) || !errors.As(wantErr, &want) {
				t.Fatalf("core %v, lane by lane %v: want memory faults from both", err, wantErr)
			}
			if *got != *want || got.Addr != mem.LocalBase+stack-4 || !got.Write {
				t.Errorf("core faults %+v, lane by lane %+v", *got, *want)
			}
			if !reflect.DeepEqual(stacks, wantStacks) {
				t.Errorf("stacks after the fault differ from lane by lane")
			}
			for l, b := range stacks {
				if le32(b[stack-4:]) != uint32(l)+0x100 {
					t.Errorf("lane %d: the faulting store wrote %#x", l, le32(b[stack-4:]))
				}
			}

			// In bounds: every lane's (R4, R5) pair, as lane by lane.
			err, stacks = stepWarp(t, false, build(stack-8), threads, stack)
			wantErr, wantStacks = stepWarp(t, true, build(stack-8), threads, stack)
			if err != nil || wantErr != nil {
				t.Fatalf("in-bounds store: core %v, lane by lane %v", err, wantErr)
			}
			if !reflect.DeepEqual(stacks, wantStacks) {
				t.Errorf("stacks differ from lane by lane")
			}
			for l, b := range stacks {
				if lo, hi := le32(b[stack-8:]), le32(b[stack-4:]); lo != uint32(l) || hi != uint32(l)+0x100 {
					t.Errorf("lane %d stored (%#x, %#x), want (%#x, %#x)", l, lo, hi, l, l+0x100)
				}
			}
		})
	}
}
