package sim_test

import (
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

// TestDivergentIfReconverges: lanes take both sides of a branch and
// reconverge with full occupancy afterwards.
func TestDivergentIfReconverges(t *testing.T) {
	// if (lane < 16) R1 = 1 else R1 = 2; after reconv R2 = ballot(1).
	h := &warpHarness{
		labels: map[string]int{"else": 6, "reconv": 8},
		instrs: []sass.Instruction{
			tid(0), // 0
			setp(0, sass.CmpLT, true, sass.R(0), sass.Imm(16)), // 1
			ssy("reconv"),                 // 2
			guarded(bra("else"), 0, true), // 3
			movi(1, 1),                    // 4 then
			sync(),                        // 5
			movi(1, 2),                    // 6 else
			sync(),                        // 7
			// 8 reconv: ballot over the reconverged warp.
			{Guard: sass.Always, Op: sass.OpVOTE, Mods: sass.Mods{Vote: sass.VoteBALLOT},
				Dsts: []sass.Operand{sass.R(2)},
				Srcs: []sass.Operand{sass.P(sass.PT)}},
		},
		outRegs: []uint8{1, 2},
	}
	got := h.run(t)
	for lane := 0; lane < 32; lane++ {
		want := uint32(2)
		if lane < 16 {
			want = 1
		}
		if got[lane][0] != want {
			t.Fatalf("lane %d R1 = %d, want %d", lane, got[lane][0], want)
		}
		if got[lane][1] != 0xffffffff {
			t.Fatalf("lane %d post-reconvergence ballot = %#x, want full warp", lane, got[lane][1])
		}
	}
}

// TestUniformBranchSkipsElse: when every lane agrees, the other path never
// executes.
func TestUniformBranchSkipsElse(t *testing.T) {
	h := &warpHarness{
		labels: map[string]int{"else": 5, "reconv": 7},
		instrs: []sass.Instruction{
			setp(0, sass.CmpEQ, true, sass.R(sass.RZ), sass.Imm(0)), // always true
			ssy("reconv"),
			guarded(bra("else"), 0, true),
			movi(1, 1), // then (taken by all)
			sync(),
			movi(1, 2), // else (dead)
			sync(),
		},
		outRegs: []uint8{1},
	}
	expectAll(t, h.run(t), 1)
}

// TestNestedDivergence: inner divergence within one arm of an outer branch.
func TestNestedDivergence(t *testing.T) {
	// outer: lane<16 -> inner: lane<8 ? R1=1 : R1=2 ; else R1=3
	h := &warpHarness{
		labels: map[string]int{
			"ielse": 8, "ireconv": 10, "oelse": 11, "oreconv": 13,
		},
		instrs: []sass.Instruction{
			tid(0), // 0
			setp(0, sass.CmpLT, true, sass.R(0), sass.Imm(16)), // 1
			setp(1, sass.CmpLT, true, sass.R(0), sass.Imm(8)),  // 2
			ssy("oreconv"),                 // 3
			guarded(bra("oelse"), 0, true), // 4
			ssy("ireconv"),                 // 5 (outer-then)
			guarded(bra("ielse"), 1, true), // 6
			movi(1, 1),                     // 7 inner-then
			sync(),                         // 8  <- label ielse points here? no...
			movi(1, 2),                     // 9?? fixed below
			sync(),                         // 10
			movi(1, 3),                     // 11 outer else
			sync(),                         // 12
			sass.New(sass.OpNOP, nil, nil), // 13 oreconv
		},
		outRegs: []uint8{1},
	}
	// Rebuild labels to match the actual indices:
	// 7: inner-then movi; 8: SYNC(inner-then end)... the layout above is
	// already linear; recompute:
	h.labels = map[string]int{"ielse": 9, "ireconv": 11, "oelse": 11, "oreconv": 13}
	// instrs: 0 tid,1 setp0,2 setp1,3 ssy(oreconv),4 bra(oelse),5 ssy(ireconv),
	// 6 bra(ielse),7 movi1,8 sync,9 movi2,10 sync,11 movi3... conflict: oelse
	// and ireconv both at 11. Rework with explicit separate blocks:
	h.instrs = []sass.Instruction{
		tid(0), // 0
		setp(0, sass.CmpLT, true, sass.R(0), sass.Imm(16)), // 1
		setp(1, sass.CmpLT, true, sass.R(0), sass.Imm(8)),  // 2
		ssy("oreconv"),                 // 3
		guarded(bra("oelse"), 0, true), // 4
		ssy("ireconv"),                 // 5
		guarded(bra("ielse"), 1, true), // 6
		movi(1, 1),                     // 7
		sync(),                         // 8
		movi(1, 2),                     // 9 ielse
		sync(),                         // 10
		sass.New(sass.OpNOP, nil, nil), // 11 ireconv (still outer-then)
		sync(),                         // 12 end of outer-then
		movi(1, 3),                     // 13 oelse
		sync(),                         // 14
		sass.New(sass.OpNOP, nil, nil), // 15 oreconv
	}
	h.labels = map[string]int{"ielse": 9, "ireconv": 11, "oelse": 13, "oreconv": 15}
	got := h.run(t)
	for lane := 0; lane < 32; lane++ {
		want := uint32(3)
		if lane < 8 {
			want = 1
		} else if lane < 16 {
			want = 2
		}
		if got[lane][0] != want {
			t.Fatalf("lane %d = %d, want %d", lane, got[lane][0], want)
		}
	}
}

// TestDivergentLoop: per-lane trip counts; each lane accumulates its own
// iteration count.
func TestDivergentLoop(t *testing.T) {
	// R1 = 0; while (R1 < lane) R1++  — lane N loops N times.
	h := &warpHarness{
		labels: map[string]int{"head": 3, "lsync": 7, "exit": 8},
		instrs: []sass.Instruction{
			tid(0),     // 0
			movi(1, 0), // 1
			ssy("exit"),
			// 3 head:
			setp(0, sass.CmpGE, true, sass.R(1), sass.R(0)),
			guarded(bra("lsync"), 0, false),                          // 4: exit lanes
			alu(sass.OpIADD, sass.Mods{}, 1, sass.R(1), sass.Imm(1)), // 5
			bra("head"),                    // 6
			sync(),                         // 7 lsync
			sass.New(sass.OpNOP, nil, nil), // 8 exit
		},
		outRegs: []uint8{1},
	}
	got := h.run(t)
	for lane := 0; lane < 32; lane++ {
		if got[lane][0] != uint32(lane) {
			t.Fatalf("lane %d looped %d times, want %d", lane, got[lane][0], lane)
		}
	}
}

// TestPartialExit: some lanes EXIT early; survivors keep running and
// ballots exclude the dead lanes.
func TestPartialExit(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			tid(0),
			setp(0, sass.CmpGE, true, sass.R(0), sass.Imm(8)),
			guarded(sass.New(sass.OpEXIT, nil, nil), 0, false), // lanes >= 8 exit
			{Guard: sass.Always, Op: sass.OpVOTE, Mods: sass.Mods{Vote: sass.VoteBALLOT},
				Dsts: []sass.Operand{sass.R(1)},
				Srcs: []sass.Operand{sass.P(sass.PT)}},
		},
		outRegs: []uint8{1},
		threads: 32,
	}
	got := h.run(t)
	for lane := 0; lane < 8; lane++ {
		if got[lane][0] != 0xff {
			t.Fatalf("surviving lane %d ballot = %#x, want 0xff", lane, got[lane][0])
		}
	}
	// Exited lanes never stored: their slots stay zero.
	for lane := 8; lane < 32; lane++ {
		if got[lane][0] != 0 {
			t.Fatalf("exited lane %d stored %#x", lane, got[lane][0])
		}
	}
}

func TestVoteAllAny(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			tid(0),
			setp(0, sass.CmpLT, true, sass.R(0), sass.Imm(16)), // half true
			setp(1, sass.CmpLT, true, sass.R(0), sass.Imm(32)), // all true
			{Guard: sass.Always, Op: sass.OpVOTE, Mods: sass.Mods{Vote: sass.VoteALL},
				Dsts: []sass.Operand{sass.P(2)}, Srcs: []sass.Operand{sass.P(0)}},
			{Guard: sass.Always, Op: sass.OpVOTE, Mods: sass.Mods{Vote: sass.VoteALL},
				Dsts: []sass.Operand{sass.P(3)}, Srcs: []sass.Operand{sass.P(1)}},
			{Guard: sass.Always, Op: sass.OpVOTE, Mods: sass.Mods{Vote: sass.VoteANY},
				Dsts: []sass.Operand{sass.P(4)}, Srcs: []sass.Operand{sass.P(0)}},
			alu(sass.OpP2R, sass.Mods{}, 1, sass.R(sass.RZ), sass.Imm(0x7f)),
		},
		outRegs: []uint8{1},
	}
	got := h.run(t)
	for lane := 0; lane < 32; lane++ {
		preds := got[lane][0]
		if preds&(1<<2) != 0 {
			t.Fatal("VOTE.ALL true on divided predicate")
		}
		if preds&(1<<3) == 0 {
			t.Fatal("VOTE.ALL false on uniform predicate")
		}
		if preds&(1<<4) == 0 {
			t.Fatal("VOTE.ANY false with half the warp")
		}
	}
}

func TestShflModes(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			tid(0),
			// IDX from lane 5.
			{Guard: sass.Always, Op: sass.OpSHFL, Mods: sass.Mods{Shfl: sass.ShflIDX},
				Dsts: []sass.Operand{sass.P(0), sass.R(1)},
				Srcs: []sass.Operand{sass.R(0), sass.Imm(5)}},
			// DOWN by 1: lane i gets lane i+1 (lane 31 keeps own).
			{Guard: sass.Always, Op: sass.OpSHFL, Mods: sass.Mods{Shfl: sass.ShflDOWN},
				Dsts: []sass.Operand{sass.P(1), sass.R(2)},
				Srcs: []sass.Operand{sass.R(0), sass.Imm(1)}},
			// BFLY xor 1: pairs swap.
			{Guard: sass.Always, Op: sass.OpSHFL, Mods: sass.Mods{Shfl: sass.ShflBFLY},
				Dsts: []sass.Operand{sass.P(2), sass.R(3)},
				Srcs: []sass.Operand{sass.R(0), sass.Imm(1)}},
		},
		outRegs: []uint8{1, 2, 3},
	}
	got := h.run(t)
	for lane := 0; lane < 32; lane++ {
		if got[lane][0] != 5 {
			t.Fatalf("IDX: lane %d = %d", lane, got[lane][0])
		}
		wantDown := uint32(lane + 1)
		if lane == 31 {
			wantDown = 31 // invalid source keeps own value
		}
		if got[lane][1] != wantDown {
			t.Fatalf("DOWN: lane %d = %d, want %d", lane, got[lane][1], wantDown)
		}
		if got[lane][2] != uint32(lane^1) {
			t.Fatalf("BFLY: lane %d = %d", lane, got[lane][2])
		}
	}
}

// TestWatchdogHang: an infinite loop must be reported as a hang.
func TestWatchdogHang(t *testing.T) {
	cfg := sim.MiniGPU()
	cfg.WatchdogWarpInstrs = 1000
	h := &warpHarness{
		labels: map[string]int{"spin": 0},
		instrs: []sass.Instruction{bra("spin")},
	}
	err := h.runErr(t, sim.NewDevice(cfg))
	ke, ok := err.(*sim.KernelError)
	if !ok || ke.Kind != sim.ErrHang {
		t.Fatalf("err = %v, want hang", err)
	}
}

// TestMemFaultKillsKernel: a wild store raises a memory-fault error.
func TestMemFaultKillsKernel(t *testing.T) {
	h := &warpHarness{
		instrs: []sass.Instruction{
			movi(0, 0x100), // below any space window
			movi(1, 0),
			{Guard: sass.Always, Op: sass.OpST, Mods: sass.Mods{E: true},
				Srcs: []sass.Operand{sass.Mem(0, 0), sass.R(2)}},
		},
	}
	err := h.runErr(t, sim.NewDevice(sim.MiniGPU()))
	ke, ok := err.(*sim.KernelError)
	if !ok || ke.Kind != sim.ErrMemFault {
		t.Fatalf("err = %v, want memory fault", err)
	}
}

// TestDivergentBarrierIsError: BAR.SYNC with divergent lanes is detected.
func TestDivergentBarrierIsError(t *testing.T) {
	h := &warpHarness{
		labels: map[string]int{"skip": 3, "reconv": 4},
		instrs: []sass.Instruction{
			tid(0),
			setp(0, sass.CmpLT, true, sass.R(0), sass.Imm(16)),
			guarded(sass.New(sass.OpBAR, nil, nil), 0, false), // divergent barrier
		},
	}
	err := h.runErr(t, sim.NewDevice(sim.MiniGPU()))
	if err == nil {
		t.Fatal("divergent barrier accepted")
	}
}

// TestCALRET: subroutine call and return.
func TestCALRET(t *testing.T) {
	h := &warpHarness{
		labels: map[string]int{"fn": 3, "after": 2},
		instrs: []sass.Instruction{
			movi(0, 1), // 0
			sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("fn")}), // 1
			bra("epilogue"), // 2 after: jump to store
			alu(sass.OpIADD, sass.Mods{}, 0, sass.R(0), sass.Imm(41)), // 3 fn body
			sass.New(sass.OpRET, nil, nil),                            // 4
		},
		outRegs: []uint8{0},
	}
	expectAll(t, h.run(t), 42)
}

// TestBarrierSynchronizesCTA: producer warp writes shared memory before
// the barrier; consumer warps read after it.
func TestBarrierSynchronizesCTA(t *testing.T) {
	// Build a 64-thread CTA: warp 0 writes shared[0]=7, all threads read
	// it after BAR.
	k := &sass.Kernel{Name: "bar", Labels: map[string]int{}, NumRegs: 48, SharedBytes: 64}
	outOff := k.AddParam("out", 8)
	k.Instrs = []sass.Instruction{
		tid(0),
		setp(0, sass.CmpEQ, true, sass.R(0), sass.Imm(0)),
		movi(1, 7),
		guarded(sass.Instruction{Op: sass.OpSTS, Mods: sass.Mods{},
			Srcs: []sass.Operand{sass.Mem(sass.RZ, 0), sass.R(1)}}, 0, false),
		sass.New(sass.OpBAR, nil, nil),
		{Guard: sass.Always, Op: sass.OpLDS,
			Dsts: []sass.Operand{sass.R(2)},
			Srcs: []sass.Operand{sass.Mem(sass.RZ, 0)}},
		// store R2 to out[tid]
		sass.New(sass.OpMOV, []sass.Operand{sass.R(4)}, []sass.Operand{sass.CMem(0, int64(outOff))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(5)}, []sass.Operand{sass.CMem(0, int64(outOff+4))}),
		alu(sass.OpSHL, sass.Mods{}, 6, sass.R(0), sass.Imm(2)),
		{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
			Dsts: []sass.Operand{sass.R(4)}, Srcs: []sass.Operand{sass.R(4), sass.R(6)}},
		{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
			Dsts: []sass.Operand{sass.R(5)}, Srcs: []sass.Operand{sass.R(5), sass.R(sass.RZ)}},
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(4, 0), sass.R(2)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	dev := sim.NewDevice(sim.MiniGPU())
	out := dev.Alloc(4 * 64)
	if _, err := dev.Launch(prog, "bar", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(64), Args: []uint64{out},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		v, _ := dev.Global.Read32(out + uint64(4*i))
		if v != 7 {
			t.Fatalf("thread %d read %d, want 7 (barrier did not order the write)", i, v)
		}
	}
}
