package sim_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"sassi/internal/mem"
	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
)

// shapeBufBytes is the global buffer a shape kernel addresses.
const shapeBufBytes = 4096

// shapeOutcome is what one run of a shape kernel leaves behind.
type shapeOutcome struct {
	err    error
	regs   []uint32
	memory []byte
	stats  sim.KernelStats
}

// runShape runs prog's kernel as one CTA of threads threads with the address
// of a patterned shapeBufBytes buffer as its argument, stepping its first
// warp until it is done or fails, on the core or, with ref, on the reference
// interpreter. It returns the error, the warp's registers, the buffer and
// the launch's KernelStats.
func runShape(t *testing.T, ref bool, prog *sass.Program, threads int) shapeOutcome {
	t.Helper()
	d := sim.NewDevice(sim.MiniGPU())
	if ref {
		simref.Install(d)
	}
	buf := d.Alloc(shapeBufBytes)
	init := make([]byte, shapeBufBytes)
	for i := range init {
		init[i] = byte(7*i + 3)
	}
	if err := d.Global.Write(buf, init); err != nil {
		t.Fatal(err)
	}
	w, stats, err := sim.StepFirstWarp(t, d, prog, sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(threads), Args: []uint64{buf},
	})
	out := shapeOutcome{err: err, regs: w.Regs(), stats: stats, memory: make([]byte, shapeBufBytes)}
	if err := d.Global.Read(buf, out.memory); err != nil {
		t.Fatal(err)
	}
	return out
}

// Address layouts of a shape kernel: the byte offset of lane l's access.
const (
	layoutUniform       = iota // 48 for every lane
	layoutContiguous           // l·width
	layoutScattered            // (7l mod 32)·width
	layoutDescending           // (31−l)·width
	layoutFaultLane9           // l·width, but lane 9 outside the buffer
	layoutOutside              // one address for every lane, outside every allocation
	layoutHighWordLane9        // 48 for every lane, but lane 9's high address word is one more
)

var layoutNames = [...]string{"uniform", "contiguous", "scattered", "descending", "fault-lane9", "outside", "high-word-lane9"}

// shapeOffset is the buffer offset of lane l's nbytes-byte access under one
// of the layouts that do not fault.
func shapeOffset(layout, l, nbytes int) int {
	switch layout {
	case layoutContiguous:
		return l * nbytes
	case layoutScattered:
		return 7 * l % 32 * nbytes
	case layoutDescending:
		return (31 - l) * nbytes
	}
	return 48
}

// shapeKernel is a kernel whose lanes of the exec pattern (bit l for lane
// l) load or store width bytes at the buffer plus their layout's offset:
// a load into dst.. (R16.. are preset to markers; RZ discards its first
// word and sends the next ones to R0..), a store from R8.., set per lane.
func shapeKernel(layout int, width sass.Width, store bool, dst uint8, pattern uint32) *sass.Program {
	r, imm := sass.R, sass.Imm
	k := &sass.Kernel{Name: "shape", NumRegs: 24, Labels: map[string]int{}}
	arg := k.AddParam("buf", 8)
	mov := func(d uint8, v int64) sass.Instruction {
		return sass.New(sass.OpMOV32, []sass.Operand{r(d)}, []sass.Operand{imm(v)})
	}
	op := func(o sass.Opcode, mods sass.Mods, d uint8, srcs ...sass.Operand) sass.Instruction {
		return sass.Instruction{Guard: sass.Always, Op: o, Mods: mods, Dsts: []sass.Operand{r(d)}, Srcs: srcs}
	}
	setp := func(p uint8, cmp sass.CmpOp, a, b sass.Operand) sass.Instruction {
		return sass.Instruction{Guard: sass.Always, Op: sass.OpISETP, Mods: sass.Mods{Cmp: cmp, Logic: sass.LogicAND},
			Dsts: []sass.Operand{sass.P(p)}, Srcs: []sass.Operand{a, b, sass.P(sass.PT)}}
	}
	shift := int64(bits.TrailingZeros(uint(width.Bytes())))
	ins := []sass.Instruction{
		sass.New(sass.OpS2R, []sass.Operand{r(0)}, []sass.Operand{sass.SReg(sass.SRLaneID)}),
		sass.New(sass.OpMOV, []sass.Operand{r(2)}, []sass.Operand{sass.CMem(0, int64(arg))}),
		sass.New(sass.OpMOV, []sass.Operand{r(3)}, []sass.Operand{sass.CMem(0, int64(arg+4))}),
	}
	switch layout {
	case layoutUniform, layoutHighWordLane9:
		ins = append(ins, mov(4, 48))
	case layoutContiguous, layoutFaultLane9:
		ins = append(ins, op(sass.OpSHL, sass.Mods{}, 4, r(0), imm(shift)))
	case layoutScattered:
		ins = append(ins,
			op(sass.OpIMUL, sass.Mods{}, 4, r(0), imm(7)),
			op(sass.OpLOP, sass.Mods{Logic: sass.LogicAND}, 4, r(4), imm(31)),
			op(sass.OpSHL, sass.Mods{}, 4, r(4), imm(shift)))
	case layoutDescending:
		ins = append(ins,
			op(sass.OpLOP, sass.Mods{Logic: sass.LogicXOR}, 4, r(0), imm(31)),
			op(sass.OpSHL, sass.Mods{}, 4, r(4), imm(shift)))
	case layoutOutside:
		ins = append(ins, mov(4, 1<<20))
	}
	if layout == layoutFaultLane9 {
		ins = append(ins, setp(1, sass.CmpEQ, r(0), imm(9)),
			sass.Instruction{Guard: sass.PredGuard{Reg: 1}, Op: sass.OpMOV32,
				Dsts: []sass.Operand{r(4)}, Srcs: []sass.Operand{imm(1 << 20)}})
	}
	ins = append(ins,
		op(sass.OpIADD, sass.Mods{SetCC: true}, 6, r(2), r(4)),
		op(sass.OpIADD, sass.Mods{X: true}, 7, r(3), r(sass.RZ)),
	)
	if layout == layoutHighWordLane9 {
		// Uniform low words do not make a uniform address.
		ins = append(ins, setp(1, sass.CmpEQ, r(0), imm(9)),
			sass.Instruction{Guard: sass.PredGuard{Reg: 1}, Op: sass.OpIADD32,
				Dsts: []sass.Operand{r(7)}, Srcs: []sass.Operand{r(7), imm(1)}})
	}
	ins = append(ins,
		// Lane data and load markers.
		op(sass.OpIADD32, sass.Mods{}, 8, r(0), imm(0x1100)),
		op(sass.OpIADD32, sass.Mods{}, 9, r(0), imm(0x2200)),
		op(sass.OpIADD32, sass.Mods{}, 10, r(0), imm(0x3300)),
		op(sass.OpIADD32, sass.Mods{}, 11, r(0), imm(0x4400)),
		mov(16, 0xd16), mov(17, 0xd17), mov(18, 0xd18), mov(19, 0xd19),
		// P0: the lanes of the exec pattern.
		mov(12, int64(pattern)),
		op(sass.OpSHR, sass.Mods{Unsigned: true}, 12, r(12), r(0)),
		op(sass.OpLOP, sass.Mods{Logic: sass.LogicAND}, 12, r(12), imm(1)),
		setp(0, sass.CmpNE, r(12), r(sass.RZ)),
	)
	access := sass.Instruction{Guard: sass.PredGuard{Reg: 0}, Mods: sass.Mods{E: true, Width: width}}
	if store {
		access.Op, access.Srcs = sass.OpST, []sass.Operand{sass.Mem(6, 0), r(8)}
	} else {
		access.Op, access.Dsts, access.Srcs = sass.OpLD, []sass.Operand{r(dst)}, []sass.Operand{sass.Mem(6, 0)}
	}
	k.Instrs = append(ins, access, sass.New(sass.OpEXIT, nil, nil))
	prog := sass.NewProgram()
	prog.AddKernel(k)
	return prog
}

// TestGlobalShapesMatchReference runs warp global accesses of every address
// layout the core tells apart — one address, ascending, neither — and three
// that fault (one lane outside the buffer, one address outside every
// allocation, one lane whose high address word alone differs), at widths
// 1, 2, 4, 8 and 16, loaded into R16 or RZ and stored, by a trailing
// partial warp (a 20-thread CTA) and by exec masks with holes, on the core
// and on the lane-by-lane reference interpreter. Registers, the buffer,
// KernelStats and the fault must be identical; the faulting layouts must
// fault and the others must not.
func TestGlobalShapesMatchReference(t *testing.T) {
	masks := []struct {
		name    string
		threads int
		pattern uint32
	}{
		{"partial-warp", 20, ^uint32(0)},
		{"holes", 32, 0xa5f0_3e96},
		{"partial-warp-holes", 20, 0x000f_0ef6},
	}
	accesses := []struct {
		name  string
		store bool
		dst   uint8
	}{
		{"load", false, 16},
		{"load-rz", false, sass.RZ},
		{"store", true, 0},
	}
	for layout, lname := range layoutNames {
		for _, width := range []sass.Width{sass.W8, sass.W16, sass.W32, sass.W64, sass.W128} {
			for _, a := range accesses {
				for _, m := range masks {
					name := fmt.Sprintf("%s/%dB/%s/%s", lname, width.Bytes(), a.name, m.name)
					t.Run(name, func(t *testing.T) {
						prog := shapeKernel(layout, width, a.store, a.dst, m.pattern)
						got := runShape(t, false, prog, m.threads)
						want := runShape(t, true, prog, m.threads)
						var gotF, wantF *mem.Fault
						errors.As(got.err, &gotF)
						errors.As(want.err, &wantF)
						switch {
						case (gotF == nil) != (wantF == nil) || got.err != nil && gotF == nil:
							t.Fatalf("core error %v, reference %v", got.err, want.err)
						case gotF != nil && *gotF != *wantF:
							t.Fatalf("core faults %+v, reference %+v", *gotF, *wantF)
						case (gotF != nil) != (layout >= layoutFaultLane9):
							t.Fatalf("fault %v for layout %s", got.err, lname)
						}
						if !reflect.DeepEqual(got.regs, want.regs) {
							t.Errorf("registers differ from the reference")
						}
						if !reflect.DeepEqual(got.memory, want.memory) {
							t.Errorf("buffer differs from the reference")
						}
						if !reflect.DeepEqual(got.stats, want.stats) {
							t.Errorf("stats %+v, reference %+v", got.stats, want.stats)
						}
						if a.dst != sass.RZ || width != sass.W64 || gotF != nil {
							return
						}
						// RZ discards the first word; R0 receives the second.
						for l := range m.threads {
							off := shapeOffset(layout, l, 8) + 4
							if v := binary.LittleEndian.Uint32(got.memory[off:]); m.pattern>>l&1 != 0 && got.regs[l] != v {
								t.Errorf("lane %d: R0 %#x, want the second word %#x", l, got.regs[l], v)
							}
						}
					})
				}
			}
		}
	}
}
