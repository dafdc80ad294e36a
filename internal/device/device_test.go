package device_test

import (
	"testing"

	"sassi/internal/device"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	isassi "sassi/internal/sassi"
	"sassi/internal/sim"
)

// view returns a warp view over a bare warp with the given active mask:
// enough for the collectives, which depend on the masks alone.
func view(active uint32) *device.Warp {
	w := new(device.Warp)
	w.Bind(nil, &sim.Warp{Active: active})
	return w
}

// lanes collects the First/Next walk.
func lanes(w *device.Warp) []int {
	var out []int
	for l := w.First(); l >= 0; l = w.Next(l) {
		out = append(out, l)
	}
	return out
}

// evenLanes is the predicate "lane index is even" as a mask.
const evenLanes = 0x55555555

// harness runs fn as the handler before the single store of a trivial
// kernel on one full warp of dev.
func harness(t *testing.T, dev *sim.Device, fn func(w *device.Warp)) error {
	t.Helper()
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	b.StGlobalU32(out, 0, b.TidX()) // single instrumentable site + exit
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := isassi.Instrument(prog, isassi.Options{
		Where: isassi.BeforeMem, BeforeHandler: "h",
	}); err != nil {
		t.Fatal(err)
	}
	rt := isassi.NewRuntime(prog)
	rt.MustRegister(&isassi.Handler{Name: "h",
		Fn: func(w *device.Warp, args isassi.HandlerArgs) { fn(w) }})
	rt.Attach(dev)
	buf := dev.Alloc(4*32, "out")
	_, err = dev.Launch(prog, "k", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{buf},
	})
	return err
}

func TestBallotFullWarp(t *testing.T) {
	w := view(device.FullMask)
	if got := w.Ballot(device.FullMask); got != 0xffffffff {
		t.Errorf("ballot(true) = %#x", got)
	}
	if got := w.Ballot(evenLanes); got != 0x55555555 {
		t.Errorf("ballot(even) = %#x", got)
	}
	if got := w.Ballot(0); got != 0 {
		t.Errorf("ballot(false) = %#x", got)
	}
}

func TestAllAny(t *testing.T) {
	w := view(device.FullMask)
	if !w.All(device.FullMask) {
		t.Error("All(true) false")
	}
	if w.All(^uint32(1 << 5)) {
		t.Error("All with one dissenter true")
	}
	if !w.Any(1 << 7) {
		t.Error("Any with one true lane false")
	}
	if w.Any(0) {
		t.Error("Any(false) true")
	}
}

func TestShflBroadcast(t *testing.T) {
	w := view(device.FullMask)
	var v device.Vec32
	var wide device.Vec64
	for l := range v {
		v[l] = uint32(l * 10)
		wide[l] = uint64(l) << 40
	}
	got := w.Shfl(&v, 3)
	own := w.Shfl(&v, 99) // out-of-range source yields own value
	got64 := w.Shfl64(&wide, 31)
	for l := range v {
		if got[l] != 30 {
			t.Errorf("lane %d shfl from 3 = %d", l, got[l])
		}
		if own[l] != v[l] {
			t.Errorf("lane %d invalid shfl = %d, want own %d", l, own[l], v[l])
		}
		if got64[l] != uint64(31)<<40 {
			t.Errorf("lane %d shfl64 = %#x", l, got64[l])
		}
	}
}

// TestEarlyReturnLeavesCollective: odd lanes return before the ballot; it
// must cover only the even lanes that reach it (CUDA active-thread
// semantics), and All is decided among those alone.
func TestEarlyReturnLeavesCollective(t *testing.T) {
	w := view(device.FullMask)
	for l := w.First(); l >= 0; l = w.Next(l) {
		if l%2 == 1 {
			w.Return(l)
		}
	}
	if got := w.Ballot(device.FullMask); got != 0x55555555 {
		t.Errorf("ballot after odd-lane exits = %#x", got)
	}
	if w.Running() != 0x55555555 || w.ActiveMask() != device.FullMask {
		t.Errorf("running %#x active %#x", w.Running(), w.ActiveMask())
	}
	if !w.All(evenLanes) {
		t.Error("All(even) false though only even lanes still run")
	}
	if w.All(evenLanes &^ 1) {
		t.Error("All true with running lane 0 dissenting")
	}
	if w.Any(^uint32(evenLanes)) {
		t.Error("Any sees a returned lane's vote")
	}
	if got := lanes(w); len(got) != 16 || got[0] != 0 || got[15] != 30 {
		t.Errorf("walk after returns = %v", got)
	}
}

// TestShflFromReturnedLane: a source that returned, was never active or is
// out of range yields each caller's own value; lanes not running are left
// alone.
func TestShflFromReturnedLane(t *testing.T) {
	w := view(0x0000ff0f) // lanes 0-3 and 8-15
	w.Return(9)
	var v device.Vec32
	for l := range v {
		v[l] = uint32(100 + l)
	}
	for _, src := range []int{9, 5, 31, 32, -1} {
		if got := w.Shfl(&v, src); got != v {
			t.Errorf("shfl from lane %d (not running) = %v, want own values", src, got)
		}
	}
	got := w.Shfl(&v, 8)
	for l := range v {
		want := v[l]
		if w.Running()&(1<<uint(l)) != 0 {
			want = 108
		}
		if got[l] != want {
			t.Errorf("lane %d shfl from 8 = %d, want %d", l, got[l], want)
		}
	}
}

// TestPartialMaskAndSingleLane: the view over a diverged warp.
func TestPartialMaskAndSingleLane(t *testing.T) {
	w := view(0x80000104) // lanes 2, 8, 31
	if got := lanes(w); len(got) != 3 || got[0] != 2 || got[1] != 8 || got[2] != 31 {
		t.Errorf("walk = %v, want [2 8 31]", got)
	}
	if got := w.Ballot(device.FullMask); got != 0x80000104 {
		t.Errorf("ballot(true) = %#x", got)
	}
	if !w.All(0x80000104) || w.All(0x00000104) {
		t.Error("All is not decided among the active lanes")
	}

	w = view(1 << 17)
	if got := lanes(w); len(got) != 1 || got[0] != 17 {
		t.Errorf("single-lane walk = %v", got)
	}
	if !w.All(1<<17) || !w.Any(1<<17) || w.Any(^uint32(1<<17)) {
		t.Error("single-lane All/Any wrong")
	}
	var v device.Vec32
	v[17], v[3] = 7, 9
	if got := w.Shfl(&v, 3); got[17] != 7 {
		t.Errorf("shfl from inactive lane = %d, want own 7", got[17])
	}
	w.Return(17)
	if w.First() != -1 || w.Ballot(device.FullMask) != 0 || !w.All(0) {
		t.Error("empty running mask: First/Ballot/All wrong")
	}
}

func TestCollectiveLoopLockstep(t *testing.T) {
	// Iterative leader-peeling (the Figure 6 idiom) over distinct values
	// must count exactly 32 unique values in 32 rounds.
	w := view(device.FullMask)
	var mine device.Vec64
	for l := range mine {
		mine[l] = uint64(l)
	}
	workset := w.Ballot(device.FullMask)
	rounds := 0
	for workset != 0 && rounds <= 32 {
		leader := device.Ffs(workset) - 1
		leadersVal := w.Shfl64(&mine, leader)
		var differs uint32
		for l := w.First(); l >= 0; l = w.Next(l) {
			if leadersVal[l] != mine[l] {
				differs |= 1 << uint(l)
			}
		}
		workset &= w.Ballot(differs)
		rounds++
	}
	if rounds != 32 {
		t.Errorf("rounds = %d, want 32 (all values distinct)", rounds)
	}
}

func TestPopcFfs(t *testing.T) {
	if device.Popc(0) != 0 || device.Popc(0xF0F0) != 8 || device.Popc(^uint32(0)) != 32 {
		t.Error("Popc wrong")
	}
	if device.Ffs(0) != 0 || device.Ffs(1) != 1 || device.Ffs(0x80000000) != 32 {
		t.Error("Ffs wrong")
	}
}

func TestThreadIdentity(t *testing.T) {
	calls := 0
	err := harness(t, sim.NewDevice(sim.MiniGPU()), func(w *device.Warp) {
		calls++
		if w.ActiveMask() != device.FullMask || w.Running() != device.FullMask {
			t.Errorf("masks at a full-warp site: active %#x running %#x", w.ActiveMask(), w.Running())
		}
		for l := w.First(); l >= 0; l = w.Next(l) {
			c := w.Lane(l)
			x, y, z := c.ThreadIdx()
			if int(x) != c.Index() || c.Index() != l || y != 0 || z != 0 {
				t.Errorf("threadIdx = (%d,%d,%d) lane %d", x, y, z, l)
			}
			if c.FlatThreadIdx() != x {
				t.Error("flat tid mismatch")
			}
			if bx, _, _ := c.BlockIdx(); bx != 0 {
				t.Error("blockIdx wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("handler ran %d times for one warp dispatch, want 1", calls)
	}
}

func TestHandlerMemFaultBecomesError(t *testing.T) {
	err := harness(t, sim.NewDevice(sim.MiniGPU()), func(w *device.Warp) {
		w.Lane(w.First()).ReadGlobal32(0xdeadbeef) // below heap: fault
	})
	if err == nil {
		t.Fatal("handler fault not surfaced")
	}
}

func TestAtomicHelpers(t *testing.T) {
	dev := sim.NewDevice(sim.MiniGPU())
	base := dev.Alloc(64, "c")
	err := harness(t, dev, func(w *device.Warp) {
		for l := w.First(); l >= 0; l = w.Next(l) {
			c := w.Lane(l)
			c.AtomicAdd32(base, 1)
			c.AtomicOr32(base+4, 1<<uint(l%8))
			c.AtomicMax32(base+8, uint32(l))
		}
		c := w.Lane(w.First())
		c.AtomicCAS32(base+12, 0, 42)
		c.AtomicCAS32(base+12, 0, 99) // loses
		c.AtomicCAS64(base+16, 0, 1<<40)
		c.WriteGlobal64(base+24, 7)
		if c.ReadGlobal64(base+24) != 7 {
			t.Error("write/read 64 mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := dev.Global.Read32(base); v != 32 {
		t.Errorf("add32 = %d", v)
	}
	if v, _ := dev.Global.Read32(base + 4); v != 0xff {
		t.Errorf("or32 = %#x", v)
	}
	if v, _ := dev.Global.Read32(base + 8); v != 31 {
		t.Errorf("max32 = %d", v)
	}
	if v, _ := dev.Global.Read32(base + 12); v != 42 {
		t.Errorf("cas32 = %d", v)
	}
	if v, _ := dev.Global.Read64(base + 16); v != 1<<40 {
		t.Errorf("cas64 = %#x", v)
	}
}

// TestWarpAtomicAnd: the warp-level atomicAnd combines exactly the running
// lanes' values into memory.
func TestWarpAtomicAnd(t *testing.T) {
	dev := sim.NewDevice(sim.MiniGPU())
	base := dev.Alloc(8, "c")
	if err := dev.Global.Write32(base, 0xffffffff); err != nil {
		t.Fatal(err)
	}
	err := harness(t, dev, func(w *device.Warp) {
		var v device.Vec32
		for l := range v {
			v[l] = ^uint32(1 << uint(l)) // lane l clears bit l
		}
		for l := 16; l < 32; l++ {
			w.Return(l)
		}
		w.AtomicAnd32(base, &v)
		for l := w.First(); l >= 0; l = w.Next(l) {
			w.Return(l)
		}
		w.AtomicAnd32(base, &v) // nobody left: no access at all
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := dev.Global.Read32(base); v != 0xffff0000 {
		t.Errorf("after lanes 0-15 cleared their bit: %#x, want 0xffff0000", v)
	}
}

// TestLaneStateAccess: registers, predicates, the condition code and
// generic-address loads and stores, per lane.
func TestLaneStateAccess(t *testing.T) {
	dev := sim.NewDevice(sim.MiniGPU())
	base := dev.Alloc(8*32, "c")
	err := harness(t, dev, func(w *device.Warp) {
		for l := w.First(); l >= 0; l = w.Next(l) {
			c := w.Lane(l)
			if c.GlobalThreadIdx() != uint64(l) {
				t.Errorf("lane %d global tid %d", l, c.GlobalThreadIdx())
			}
			old := c.ReadReg(15)
			c.WriteReg(15, uint32(1000+l))
			if c.ReadReg(15) != uint32(1000+l) {
				t.Errorf("lane %d register write lost", l)
			}
			c.WriteReg(15, old)

			p := c.ReadPred(3)
			c.WritePred(3, !p)
			if c.ReadPred(3) == p {
				t.Errorf("lane %d predicate write lost", l)
			}
			c.WritePred(3, p)

			cc := c.ReadCC()
			c.WriteCC(0x1f) // masked to 4 bits
			if c.ReadCC() != 0xf {
				t.Errorf("lane %d cc = %#x", l, c.ReadCC())
			}
			c.WriteCC(cc)

			addr := base + 8*uint64(l)
			c.WriteGeneric32(addr, uint32(l))
			c.WriteGlobal32(addr+4, 7)
			if got := c.ReadGeneric64(addr); got != 7<<32|uint64(l) {
				t.Errorf("lane %d generic 64-bit load = %#x", l, got)
			}
			if c.AtomicAdd64(addr, 1) != 7<<32|uint64(l) {
				t.Errorf("lane %d atomicAdd returned the wrong old value", l)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A generic address outside every window faults, with the lane.
	err = harness(t, dev, func(w *device.Warp) { w.Lane(4).ReadGeneric32(0x10) })
	if err == nil {
		t.Error("unmapped generic load did not fault")
	}
}
