package sim_test

import (
	"errors"
	"strings"
	"testing"

	"sassi/internal/mem"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// memHarness launches a kernel with one extra scratch buffer parameter and
// returns (device, scratch base) for memory-op tests.
func memRun(t *testing.T, sharedBytes int, body func(scratchOff int) []sass.Instruction) (*sim.Device, uint64) {
	t.Helper()
	k := &sass.Kernel{Name: "m", Labels: map[string]int{}, NumRegs: 48, SharedBytes: sharedBytes}
	scratchOff := k.AddParam("scratch", 8)
	k.Instrs = append(body(scratchOff), sass.New(sass.OpEXIT, nil, nil))
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	requireWellFormed(t, k)
	prog := sass.NewProgram()
	prog.AddKernel(k)
	dev := sim.NewDevice(sim.MiniGPU())
	scratch := dev.Alloc(4096)
	if _, err := dev.Launch(prog, "m", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{scratch},
	}); err != nil {
		t.Fatal(err)
	}
	return dev, scratch
}

// ldScratch loads the scratch pointer into (R40, R41).
func ldScratch(off int) []sass.Instruction {
	return []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(40)}, []sass.Operand{sass.CMem(0, int64(off))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(41)}, []sass.Operand{sass.CMem(0, int64(off+4))}),
	}
}

func TestSTGWidths(t *testing.T) {
	dev, scratch := memRun(t, 0, func(off int) []sass.Instruction {
		ins := ldScratch(off)
		ins = append(ins,
			tid(0),
			setp(0, sass.CmpEQ, true, sass.R(0), sass.Imm(0)), // lane 0 only
			movi(2, 0x11223344),
			movi(3, 0x55667788),
			guarded(sass.Instruction{Op: sass.OpSTG, Mods: sass.Mods{E: true, Width: sass.W64},
				Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(2)}}, 0, false),
			guarded(sass.Instruction{Op: sass.OpSTG, Mods: sass.Mods{E: true, Width: sass.W8},
				Srcs: []sass.Operand{sass.Mem(40, 16), sass.R(2)}}, 0, false),
			guarded(sass.Instruction{Op: sass.OpSTG, Mods: sass.Mods{E: true, Width: sass.W16},
				Srcs: []sass.Operand{sass.Mem(40, 20), sass.R(3)}}, 0, false),
		)
		return ins
	})
	if lo, _ := dev.Global.Read32(scratch); lo != 0x11223344 {
		t.Errorf("64-bit store lo = %#x", lo)
	}
	if hi, _ := dev.Global.Read32(scratch + 4); hi != 0x55667788 {
		t.Errorf("64-bit store hi = %#x", hi)
	}
	if b, _ := dev.Global.Read32(scratch + 16); b&0xff != 0x44 {
		t.Errorf("8-bit store = %#x", b)
	}
	if h, _ := dev.Global.Read32(scratch + 20); h&0xffff != 0x7788 {
		t.Errorf("16-bit store = %#x", h)
	}
}

func TestLDGWidths(t *testing.T) {
	dev, scratch := memRun(t, 0, func(off int) []sass.Instruction {
		ins := ldScratch(off)
		ins = append(ins,
			tid(0),
			setp(0, sass.CmpEQ, true, sass.R(0), sass.Imm(0)),
			movi(2, -0x55443323), // 0xAABBCCDD as int32
			movi(3, 0x00112233),
			// Store a pair then read it back in various widths.
			guarded(sass.Instruction{Op: sass.OpSTG, Mods: sass.Mods{E: true, Width: sass.W64},
				Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(2)}}, 0, false),
			guarded(sass.Instruction{Op: sass.OpLDG, Mods: sass.Mods{E: true, Width: sass.W64},
				Dsts: []sass.Operand{sass.R(10)},
				Srcs: []sass.Operand{sass.Mem(40, 0)}}, 0, false),
			guarded(sass.Instruction{Op: sass.OpLDG, Mods: sass.Mods{E: true, Width: sass.W8},
				Dsts: []sass.Operand{sass.R(12)},
				Srcs: []sass.Operand{sass.Mem(40, 1)}}, 0, false),
			guarded(sass.Instruction{Op: sass.OpLDG, Mods: sass.Mods{E: true, Width: sass.W16},
				Dsts: []sass.Operand{sass.R(13)},
				Srcs: []sass.Operand{sass.Mem(40, 2)}}, 0, false),
			// Write observed values out.
			guarded(sass.Instruction{Op: sass.OpSTG, Mods: sass.Mods{E: true, Width: sass.W128},
				Srcs: []sass.Operand{sass.Mem(40, 32), sass.R(10)}}, 0, false),
		)
		return ins
	})
	if v, _ := dev.Global.Read32(scratch + 32); v != 0xAABBCCDD {
		t.Errorf("ld64 lo = %#x", v)
	}
	if v, _ := dev.Global.Read32(scratch + 36); v != 0x00112233 {
		t.Errorf("ld64 hi = %#x", v)
	}
	if v, _ := dev.Global.Read32(scratch + 40); v != 0xCC { // byte at +1, zero extended
		t.Errorf("ld8 = %#x", v)
	}
	if v, _ := dev.Global.Read32(scratch + 44); v != 0xAABB {
		t.Errorf("ld16 = %#x", v)
	}
}

func TestSharedRoundtripAndGenericWindow(t *testing.T) {
	dev, scratch := memRun(t, 256, func(off int) []sass.Instruction {
		ins := ldScratch(off)
		ins = append(ins,
			tid(0),
			// Each lane stores lane*3 to shared[lane] then loads neighbor
			// (lane+1)%32 and writes it to scratch[lane].
			alu(sass.OpIMUL, sass.Mods{}, 1, sass.R(0), sass.Imm(3)),
			alu(sass.OpSHL, sass.Mods{}, 2, sass.R(0), sass.Imm(2)),
			sass.Instruction{Guard: sass.Always, Op: sass.OpSTS,
				Srcs: []sass.Operand{sass.Mem(2, 0), sass.R(1)}},
			// generic window read: gen addr = (lane*4) | SharedBase
			alu(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, 3, sass.R(2), sass.CMem(0, sass.CBSharedBase)),
			movi(4, 0),
			sass.Instruction{Guard: sass.Always, Op: sass.OpLD, Mods: sass.Mods{E: true},
				Dsts: []sass.Operand{sass.R(5)},
				Srcs: []sass.Operand{sass.Mem(3, 0)}},
			// write to scratch[lane]
			sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
				Dsts: []sass.Operand{sass.R(40)}, Srcs: []sass.Operand{sass.R(40), sass.R(2)}},
			sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
				Dsts: []sass.Operand{sass.R(41)}, Srcs: []sass.Operand{sass.R(41), sass.R(sass.RZ)}},
			sass.Instruction{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
				Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(5)}},
		)
		return ins
	})
	for lane := 0; lane < 32; lane++ {
		v, _ := dev.Global.Read32(scratch + uint64(4*lane))
		if v != uint32(lane*3) {
			t.Fatalf("lane %d read %d via generic shared window, want %d", lane, v, lane*3)
		}
	}
}

func TestLocalStackRoundtrip(t *testing.T) {
	dev, scratch := memRun(t, 0, func(off int) []sass.Instruction {
		ins := ldScratch(off)
		ins = append(ins,
			tid(0),
			// Push a frame, spill tid*5, reload, pop.
			alu(sass.OpIADD, sass.Mods{}, 1, sass.R(sass.SP), sass.Imm(-16)),
			sass.New(sass.OpMOV, []sass.Operand{sass.R(sass.SP)}, []sass.Operand{sass.R(1)}),
			alu(sass.OpIMUL, sass.Mods{}, 2, sass.R(0), sass.Imm(5)),
			sass.Instruction{Guard: sass.Always, Op: sass.OpSTL,
				Srcs: []sass.Operand{sass.Mem(sass.SP, 4), sass.R(2)}},
			sass.Instruction{Guard: sass.Always, Op: sass.OpLDL,
				Dsts: []sass.Operand{sass.R(3)},
				Srcs: []sass.Operand{sass.Mem(sass.SP, 4)}},
			alu(sass.OpIADD, sass.Mods{}, sass.SP, sass.R(sass.SP), sass.Imm(16)),
			// out[lane] = R3
			alu(sass.OpSHL, sass.Mods{}, 4, sass.R(0), sass.Imm(2)),
			sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
				Dsts: []sass.Operand{sass.R(40)}, Srcs: []sass.Operand{sass.R(40), sass.R(4)}},
			sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
				Dsts: []sass.Operand{sass.R(41)}, Srcs: []sass.Operand{sass.R(41), sass.R(sass.RZ)}},
			sass.Instruction{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
				Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(3)}},
		)
		return ins
	})
	for lane := 0; lane < 32; lane++ {
		v, _ := dev.Global.Read32(scratch + uint64(4*lane))
		if v != uint32(lane*5) {
			t.Fatalf("lane %d local roundtrip = %d, want %d", lane, v, lane*5)
		}
	}
}

func TestAtomicsGlobal(t *testing.T) {
	dev, scratch := memRun(t, 0, func(off int) []sass.Instruction {
		ins := ldScratch(off)
		ins = append(ins,
			tid(0),
			movi(1, 1),
			// All 32 lanes atomically add 1 to scratch[0]; each records old.
			sass.Instruction{Guard: sass.Always, Op: sass.OpATOM,
				Mods: sass.Mods{Atom: sass.AtomADD, E: true, Width: sass.W32},
				Dsts: []sass.Operand{sass.R(2)},
				Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(1)}},
			// MAX of lane id into scratch[1].
			sass.Instruction{Guard: sass.Always, Op: sass.OpATOM,
				Mods: sass.Mods{Atom: sass.AtomMAX, E: true, Width: sass.W32},
				Dsts: []sass.Operand{sass.R(sass.RZ)},
				Srcs: []sass.Operand{sass.Mem(40, 4), sass.R(0)}},
			// store per-lane old value of the ADD at scratch[8+lane].
			alu(sass.OpSHL, sass.Mods{}, 4, sass.R(0), sass.Imm(2)),
			sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
				Dsts: []sass.Operand{sass.R(40)}, Srcs: []sass.Operand{sass.R(40), sass.R(4)}},
			sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
				Dsts: []sass.Operand{sass.R(41)}, Srcs: []sass.Operand{sass.R(41), sass.R(sass.RZ)}},
			sass.Instruction{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
				Srcs: []sass.Operand{sass.Mem(40, 32), sass.R(2)}},
		)
		return ins
	})
	if v, _ := dev.Global.Read32(scratch); v != 32 {
		t.Errorf("atomic add total = %d, want 32", v)
	}
	if v, _ := dev.Global.Read32(scratch + 4); v != 31 {
		t.Errorf("atomic max = %d, want 31", v)
	}
	// Old values are a permutation of 0..31 (ascending lane order here).
	seen := map[uint32]bool{}
	for lane := 0; lane < 32; lane++ {
		v, _ := dev.Global.Read32(scratch + uint64(32+4*lane))
		if seen[v] || v > 31 {
			t.Fatalf("atomic old values not a permutation: lane %d old %d", lane, v)
		}
		seen[v] = true
	}
}

func TestAtomicsShared(t *testing.T) {
	dev, scratch := memRun(t, 64, func(off int) []sass.Instruction {
		ins := ldScratch(off)
		ins = append(ins,
			movi(1, 2),
			sass.Instruction{Guard: sass.Always, Op: sass.OpATOMS,
				Mods: sass.Mods{Atom: sass.AtomADD, Width: sass.W32},
				Dsts: []sass.Operand{sass.R(sass.RZ)},
				Srcs: []sass.Operand{sass.Mem(sass.RZ, 0), sass.R(1)}},
			sass.New(sass.OpBAR, nil, nil),
			// lane 0 copies shared[0] to scratch.
			tid(0),
			setp(0, sass.CmpEQ, true, sass.R(0), sass.Imm(0)),
			guarded(sass.Instruction{Op: sass.OpLDS,
				Dsts: []sass.Operand{sass.R(2)},
				Srcs: []sass.Operand{sass.Mem(sass.RZ, 0)}}, 0, false),
			guarded(sass.Instruction{Op: sass.OpSTG, Mods: sass.Mods{E: true},
				Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(2)}}, 0, false),
		)
		return ins
	})
	if v, _ := dev.Global.Read32(scratch); v != 64 {
		t.Errorf("shared atomic total = %d, want 64", v)
	}
}

// TestAtomicMinMaxSignedness: a 32-bit MIN or MAX compares signed unless
// .U, and a 64-bit one unsigned, whatever its modifiers.
func TestAtomicMinMaxSignedness(t *testing.T) {
	red := func(op sass.AtomOp, unsigned bool, w sass.Width, off int64) sass.Instruction {
		return guarded(sass.Instruction{Op: sass.OpRED, Mods: sass.Mods{Atom: op, E: true, Width: w, Unsigned: unsigned},
			Srcs: []sass.Operand{sass.Mem(40, off), sass.R(1)}}, 0, false)
	}
	five := func(w sass.Width, off int64) sass.Instruction {
		return guarded(sass.Instruction{Op: sass.OpSTG, Mods: sass.Mods{E: true, Width: w},
			Srcs: []sass.Operand{sass.Mem(40, off), sass.R(3)}}, 0, false)
	}
	dev, scratch := memRun(t, 0, func(off int) []sass.Instruction {
		return append(ldScratch(off),
			tid(0),
			setp(0, sass.CmpEQ, true, sass.R(0), sass.Imm(0)), // lane 0 only
			movi(1, -1), movi(2, -1), movi(3, 5), movi(4, 0),
			five(sass.W32, 0), five(sass.W32, 4), five(sass.W64, 8), five(sass.W32, 16), five(sass.W32, 20),
			red(sass.AtomMIN, false, sass.W32, 0),
			red(sass.AtomMIN, true, sass.W32, 4),
			red(sass.AtomMIN, false, sass.W64, 8),
			red(sass.AtomMAX, false, sass.W32, 16),
			red(sass.AtomMAX, true, sass.W32, 20),
		)
	})
	for _, c := range []struct {
		what string
		off  uint64
		want uint64
	}{
		{"MIN 5, -1", 0, 0xffffffff}, {"MIN.U 5, 0xffffffff", 4, 5}, {"MIN.64 5, 2^64-1", 8, 5},
		{"MAX 5, -1", 16, 5}, {"MAX.U 5, 0xffffffff", 20, 0xffffffff},
	} {
		v, _ := dev.Global.Read64(scratch + c.off)
		if c.off != 8 {
			v = uint64(uint32(v))
		}
		if v != c.want {
			t.Errorf("%s = %#x, want %#x", c.what, v, c.want)
		}
	}
}

// TestAtomicUndefinedOperator: an operator encoding past CAS, which no
// encoder emits but a decoded binary can carry, fails the launch.
func TestAtomicUndefinedOperator(t *testing.T) {
	for _, op := range []sass.Opcode{sass.OpATOM, sass.OpATOMS} {
		k := &sass.Kernel{Name: "m", Labels: map[string]int{}, NumRegs: 8, SharedBytes: 64}
		k.Instrs = []sass.Instruction{
			{Guard: sass.Always, Op: op, Mods: sass.Mods{Atom: sass.AtomCAS + 1, E: true},
				Dsts: []sass.Operand{sass.R(2)}, Srcs: []sass.Operand{sass.Mem(sass.RZ, 0), sass.R(1)}},
			sass.New(sass.OpEXIT, nil, nil),
		}
		prog := sass.NewProgram()
		prog.AddKernel(k)
		_, err := sim.NewDevice(sim.MiniGPU()).Launch(prog, "m", sim.LaunchParams{Grid: sim.D1(1), Block: sim.D1(32)})
		var ke *sim.KernelError
		if !errors.As(err, &ke) || ke.Kind != sim.ErrInvalid || !strings.Contains(ke.Detail, "undefined atomic operator") {
			t.Errorf("%s with operator %d: %v, want an invalid-instruction error", op, sass.AtomCAS+1, err)
		}
	}
}

// TestAtomicGlobalFaultPrefix: a warp's ATOM stops at its lowest lane whose
// address faults — past the allocation, or not global at all — with that
// lane's fault, and every lane below it has applied.
func TestAtomicGlobalFaultPrefix(t *testing.T) {
	for _, tc := range []struct {
		name string
		hi   int64 // lane 16's address: scratch+4096, or this in the high word
		why  string
	}{
		{"past the allocation", -1, "address outside any allocation"},
		{"not global", 0, "atomic requires a global address"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := &sass.Kernel{Name: "m", Labels: map[string]int{}, NumRegs: 48}
			off := k.AddParam("scratch", 8)
			k.Instrs = append(ldScratch(off),
				tid(0),
				alu(sass.OpSHL, sass.Mods{}, 4, sass.R(0), sass.Imm(8)), // 256 bytes per lane
				sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
					Dsts: []sass.Operand{sass.R(40)}, Srcs: []sass.Operand{sass.R(40), sass.R(4)}},
				sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
					Dsts: []sass.Operand{sass.R(41)}, Srcs: []sass.Operand{sass.R(41), sass.R(sass.RZ)}},
				setp(0, sass.CmpGE, false, sass.R(0), sass.Imm(16)),
				movi(1, 1),
			)
			if tc.hi >= 0 {
				k.Instrs = append(k.Instrs, guarded(movi(41, tc.hi), 0, false))
			}
			k.Instrs = append(k.Instrs,
				sass.Instruction{Guard: sass.Always, Op: sass.OpATOM,
					Mods: sass.Mods{Atom: sass.AtomADD, E: true, Width: sass.W32},
					Dsts: []sass.Operand{sass.R(2)},
					Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(1)}},
				sass.New(sass.OpEXIT, nil, nil))
			if err := k.ResolveLabels(); err != nil {
				t.Fatal(err)
			}
			prog := sass.NewProgram()
			prog.AddKernel(k)
			dev := sim.NewDevice(sim.MiniGPU())
			scratch := dev.Alloc(4096)
			_, err := dev.Launch(prog, "m", sim.LaunchParams{Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{scratch}})
			var f *mem.Fault
			if !errors.As(err, &f) || f.Why != tc.why || !f.Write || f.Space != mem.SpaceGlobal {
				t.Fatalf("launch error %v, want a global store fault: %s", err, tc.why)
			}
			if want := scratch + 4096; tc.hi < 0 && f.Addr != want {
				t.Errorf("fault at %#x, want lane 16's %#x", f.Addr, want)
			}
			for lane := 0; lane < 16; lane++ {
				if v, _ := dev.Global.Read32(scratch + uint64(256*lane)); v != 1 {
					t.Errorf("lane %d's word = %d, want 1", lane, v)
				}
			}
		})
	}
}

func TestREDAndCAS(t *testing.T) {
	dev, scratch := memRun(t, 0, func(off int) []sass.Instruction {
		ins := ldScratch(off)
		ins = append(ins,
			tid(0),
			movi(1, 1),
			// RED: reduction without return value.
			sass.Instruction{Guard: sass.Always, Op: sass.OpRED,
				Mods: sass.Mods{Atom: sass.AtomADD, E: true, Width: sass.W32},
				Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(1)}},
			// CAS at scratch[4]: only the first lane (old==0) wins writing 99.
			movi(2, 0),
			movi(3, 99),
			sass.Instruction{Guard: sass.Always, Op: sass.OpATOM,
				Mods: sass.Mods{Atom: sass.AtomCAS, E: true, Width: sass.W32},
				Dsts: []sass.Operand{sass.R(4)},
				Srcs: []sass.Operand{sass.Mem(40, 4), sass.R(2), sass.R(3)}},
		)
		return ins
	})
	if v, _ := dev.Global.Read32(scratch); v != 32 {
		t.Errorf("RED total = %d", v)
	}
	if v, _ := dev.Global.Read32(scratch + 4); v != 99 {
		t.Errorf("CAS result = %d, want 99", v)
	}
}

func TestLDC(t *testing.T) {
	// LDC reads kernel parameters from constant bank 0.
	dev, scratch := memRun(t, 0, func(off int) []sass.Instruction {
		ins := ldScratch(off)
		ins = append(ins,
			tid(0),
			setp(0, sass.CmpEQ, true, sass.R(0), sass.Imm(0)),
			// Read the scratch pointer's low word via LDC [RZ + off].
			guarded(sass.Instruction{Op: sass.OpLDC,
				Dsts: []sass.Operand{sass.R(2)},
				Srcs: []sass.Operand{sass.Mem(sass.RZ, int64(off))}}, 0, false),
			guarded(sass.Instruction{Op: sass.OpSTG, Mods: sass.Mods{E: true},
				Srcs: []sass.Operand{sass.Mem(40, 0), sass.R(2)}}, 0, false),
		)
		return ins
	})
	if v, _ := dev.Global.Read32(scratch); uint64(v) != scratch&0xffffffff {
		t.Errorf("LDC param readback = %#x, want %#x", v, scratch)
	}
}

func TestCoalescingStats(t *testing.T) {
	// A unit-stride warp access should produce few transactions; a fully
	// scattered one, 32.
	run := func(stride int64) uint64 {
		k := &sass.Kernel{Name: "c", Labels: map[string]int{}, NumRegs: 48}
		off := k.AddParam("scratch", 8)
		k.Instrs = []sass.Instruction{
			sass.New(sass.OpMOV, []sass.Operand{sass.R(40)}, []sass.Operand{sass.CMem(0, int64(off))}),
			sass.New(sass.OpMOV, []sass.Operand{sass.R(41)}, []sass.Operand{sass.CMem(0, int64(off+4))}),
			tid(0),
			movi(1, stride),
			alu(sass.OpIMUL, sass.Mods{}, 2, sass.R(0), sass.R(1)),
			{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
				Dsts: []sass.Operand{sass.R(40)}, Srcs: []sass.Operand{sass.R(40), sass.R(2)}},
			{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
				Dsts: []sass.Operand{sass.R(41)}, Srcs: []sass.Operand{sass.R(41), sass.R(sass.RZ)}},
			{Guard: sass.Always, Op: sass.OpLDG, Mods: sass.Mods{E: true},
				Dsts: []sass.Operand{sass.R(3)},
				Srcs: []sass.Operand{sass.Mem(40, 0)}},
			sass.New(sass.OpEXIT, nil, nil),
		}
		if err := k.ResolveLabels(); err != nil {
			t.Fatal(err)
		}
		prog := sass.NewProgram()
		prog.AddKernel(k)
		dev := sim.NewDevice(sim.MiniGPU())
		dev.Alloc(1 << 16)
		stats, err := dev.Launch(prog, "c", sim.LaunchParams{
			Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{mem.GlobalBase + 256},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.GlobalTransactions
	}
	coalesced := run(4)
	scattered := run(256)
	if coalesced >= scattered {
		t.Errorf("coalesced %d >= scattered %d transactions", coalesced, scattered)
	}
	if scattered != 32 {
		t.Errorf("scattered transactions = %d, want 32", scattered)
	}
	if coalesced != 4 {
		t.Errorf("coalesced transactions = %d, want 4 (32 lanes x 4B / 32B lines)", coalesced)
	}
}
