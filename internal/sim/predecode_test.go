package sim

// Guards for the execution core's launch state: the warp-issue steady state
// stays allocation-free on the classes injected code is made of, the
// predecode cached on a kernel never outlives the instruction stream it was
// built from, CTA slabs never serve two live CTAs and always come back, and
// what a device retains does not scale with the stack size.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sassi/internal/sass"
)

// TestPredecodedZeroAllocSteadyState pins the core's allocation contract:
// after the launch-time predecode, the slab carve and the first store to a
// thread's stack, issuing warp instructions through stepPre performs zero
// heap allocations. The loop covers class dispatch, the uniform fast path,
// per-lane ALU loops, the BRA control transfer, and the save/restore half
// of an injected call: STL/LDL of a stack slot and P2R/R2P of the predicate
// file and the condition code.
func TestPredecodedZeroAllocSteadyState(t *testing.T) {
	r, imm := sass.R, sass.Imm
	stl := func(off int64, src uint8) sass.Instruction {
		return sass.Instruction{Guard: sass.Always, Op: sass.OpSTL,
			Srcs: []sass.Operand{sass.Mem(sass.SP, off), r(src)}}
	}
	ldl := func(off int64, dst uint8) sass.Instruction {
		return sass.Instruction{Guard: sass.Always, Op: sass.OpLDL,
			Dsts: []sass.Operand{r(dst)}, Srcs: []sass.Operand{sass.Mem(sass.SP, off)}}
	}
	loop := []sass.Instruction{
		sass.New(sass.OpIADD, []sass.Operand{r(0)}, []sass.Operand{r(0), r(2)}),
		sass.New(sass.OpFFMA, []sass.Operand{r(2)}, []sass.Operand{r(2), r(3), r(2)}),
		stl(-8, 0),
		{Guard: sass.Always, Op: sass.OpP2R, Dsts: []sass.Operand{r(3)},
			Srcs: []sass.Operand{r(sass.RZ), imm(0xff)}},
		stl(-16, 3),
		{Guard: sass.Always, Op: sass.OpP2R, Mods: sass.Mods{X: true}, Dsts: []sass.Operand{r(3)},
			Srcs: []sass.Operand{r(sass.RZ), imm(0xf)}},
		stl(-12, 3),
		ldl(-16, 3),
		{Guard: sass.Always, Op: sass.OpR2P, Srcs: []sass.Operand{r(3), imm(0x7f)}},
		ldl(-12, 3),
		{Guard: sass.Always, Op: sass.OpR2P, Mods: sass.Mods{X: true},
			Srcs: []sass.Operand{r(3), imm(0xf)}},
		ldl(-8, 4),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("loop")}),
	}
	for i := range loop[:len(loop)-1] {
		if c := classify(&loop[i], sass.ParamBase); c == pcGeneric {
			t.Errorf("loop[%d] (%v) has no predecoded class", i, loop[i].Op)
		}
	}
	step := warpStepper(t, loop, nil, nil, nil)
	for range loop { // warm up: the first STL materialises each lane's frame
		step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { step() }); allocs != 0 {
		t.Errorf("warp issue allocates %.1f times per instruction, want 0", allocs)
	}
}

// stampKernel is out[ctaid*ntid + tid] = tid + id after a round trip of
// the value through the thread's stack, so a slab serving two live CTAs —
// registers or stack descriptors — shows as a wrong result, not just as a
// race report.
func stampKernel(t *testing.T, id uint32) *sass.Program {
	t.Helper()
	r, imm := sass.R, sass.Imm
	k := &sass.Kernel{Name: "stamp", NumRegs: 16, Labels: map[string]int{}}
	out := k.AddParam("out", 8)
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{r(2)}, []sass.Operand{sass.CMem(0, int64(out))}),
		sass.New(sass.OpMOV, []sass.Operand{r(3)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
		sass.New(sass.OpS2R, []sass.Operand{r(0)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpS2R, []sass.Operand{r(5)}, []sass.Operand{sass.SReg(sass.SRCtaidX)}),
		sass.New(sass.OpS2R, []sass.Operand{r(6)}, []sass.Operand{sass.SReg(sass.SRNTidX)}),
		sass.New(sass.OpIMAD, []sass.Operand{r(4)}, []sass.Operand{r(5), r(6), r(0)}),
		sass.New(sass.OpSHL, []sass.Operand{r(4)}, []sass.Operand{r(4), imm(2)}),
		sass.New(sass.OpIADD, []sass.Operand{r(2)}, []sass.Operand{r(2), r(4)}),
		sass.New(sass.OpIADD32, []sass.Operand{r(0)}, []sass.Operand{r(0), imm(int64(id))}),
		{Guard: sass.Always, Op: sass.OpSTL, Srcs: []sass.Operand{sass.Mem(sass.SP, -4), r(0)}},
		{Guard: sass.Always, Op: sass.OpLDL, Dsts: []sass.Operand{r(7)}, Srcs: []sass.Operand{sass.Mem(sass.SP, -4)}},
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(2, 0), r(7)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	return prog
}

// TestArenaRecycleConcurrent: SM goroutines build and retire CTAs
// concurrently on one device — more CTAs than can be resident, so slabs are
// recycled within the launch and across launches — while other devices do
// the same with the same kernel, sharing its predecode. Under -race this
// verifies that a slab never serves two live CTAs and that the per-SM free
// lists and the kernel's cache slot need nothing the code does not do.
func TestArenaRecycleConcurrent(t *testing.T) {
	const devices, launches, ctas, threads = 4, 12, 24, 64
	const id = 1000
	prog := stampKernel(t, id)
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for g := 0; g < devices; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := NewDevice(MiniGPU())
			buf := dev.Alloc(4*ctas*threads, "out")
			for i := 0; i < launches; i++ {
				if _, err := dev.Launch(prog, "stamp", LaunchParams{
					Grid: D1(ctas), Block: D1(threads), Args: []uint64{buf},
				}); err != nil {
					errs <- err
					return
				}
				if n := dev.LiveSlabs(); n != 0 {
					errs <- fmt.Errorf("launch %d: %d slabs outstanding", i, n)
					return
				}
				for j := uint64(0); j < ctas*threads; j++ {
					got, err := dev.Global.Read32(buf + 4*j)
					if err != nil {
						errs <- err
						return
					}
					if want := uint32(j%threads) + id; got != want {
						errs <- fmt.Errorf("launch %d thread %d: got %d, want %d", i, j, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPredecodeFollowsInstrs is the unit form of the stale-predecode bug:
// a kernel launched, then given a new instruction stream under the same
// *sass.Kernel (what sassi.Instrument does), must run the new stream on
// the same device and on a fresh one.
func TestPredecodeFollowsInstrs(t *testing.T) {
	prog := stampKernel(t, 7)
	k := prog.Kernels[0]
	dev := NewDevice(MiniGPU())
	buf := dev.Alloc(4*32, "out")
	launch := func(d *Device) uint32 {
		t.Helper()
		if _, err := d.Launch(prog, "stamp", LaunchParams{Grid: D1(1), Block: D1(32), Args: []uint64{buf}}); err != nil {
			t.Fatal(err)
		}
		v, err := dev.Global.Read32(buf)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := launch(dev); got != 7 {
		t.Fatalf("first launch stored %d, want 7", got)
	}
	before := k.Lowered(predecode)
	if k.Lowered(predecode) != before {
		t.Error("an unchanged kernel was predecoded twice")
	}

	// Same length, new array: only the address tells.
	k.Instrs = append([]sass.Instruction(nil), k.Instrs...)
	k.Instrs[8] = sass.New(sass.OpIADD32, []sass.Operand{sass.R(0)}, []sass.Operand{sass.R(0), sass.Imm(9)})
	if got := launch(dev); got != 9 {
		t.Errorf("launch after the rewrite stored %d on the same device, want 9", got)
	}
	other := NewDevice(MiniGPU())
	other.Global = dev.Global
	if got := launch(other); got != 9 {
		t.Errorf("launch after the rewrite stored %d on a fresh device, want 9", got)
	}
	if k.Lowered(predecode) == before {
		t.Error("the predecode survived the replacement of k.Instrs")
	}
}

// failingLaunches are launches that end early in each way a launch can:
// a memory fault, a dispatcher error (what a handler panic or fault becomes),
// and the watchdog. Each runs more CTAs than one SM holds, fails in one of
// them, and leaves the others resident or pending.
func failingLaunches(t *testing.T) map[string]func(dev *Device) error {
	t.Helper()
	r, imm := sass.R, sass.Imm
	build := func(body ...sass.Instruction) *sass.Program {
		k := &sass.Kernel{Name: "bad", NumRegs: 16, Labels: map[string]int{"spin": 2}}
		// Only CTA 5 misbehaves: P0 = ctaid.x == 5.
		k.Instrs = append([]sass.Instruction{
			sass.New(sass.OpS2R, []sass.Operand{r(0)}, []sass.Operand{sass.SReg(sass.SRCtaidX)}),
			{Guard: sass.Always, Op: sass.OpISETP, Mods: sass.Mods{Cmp: sass.CmpEQ, Logic: sass.LogicAND},
				Dsts: []sass.Operand{sass.P(0)}, Srcs: []sass.Operand{r(0), imm(5), sass.P(sass.PT)}},
		}, body...)
		k.Instrs = append(k.Instrs, sass.New(sass.OpEXIT, nil, nil))
		if err := k.ResolveLabels(); err != nil {
			t.Fatal(err)
		}
		prog := sass.NewProgram()
		prog.AddKernel(k)
		prog.InternHandler("h")
		return prog
	}
	onP0 := func(in sass.Instruction) sass.Instruction {
		in.Guard = sass.PredGuard{Reg: 0}
		return in
	}
	fault := build(onP0(sass.Instruction{Op: sass.OpSTL, Srcs: []sass.Operand{sass.Mem(sass.RZ, 1<<20), r(0)}}))
	handler := build(onP0(sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("h")})))
	hang := build(onP0(sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("spin")})))
	launch := func(prog *sass.Program) func(dev *Device) error {
		return func(dev *Device) error {
			_, err := dev.Launch(prog, "bad", LaunchParams{Grid: D1(24), Block: D1(64)})
			return err
		}
	}
	return map[string]func(dev *Device) error{
		"fault": launch(fault), "handler": launch(handler), "hang": launch(hang),
	}
}

type failingDispatcher struct{}

func (failingDispatcher) Dispatch(*Device, *Warp, int) error {
	return errors.New("handler body failed")
}

// TestFailedLaunchReturnsSlabs: every exit from Launch gives back what it
// took. After a faulting launch, a launch whose handler dispatch fails and
// a watchdog hang no slab is outstanding, on either SM dispatch; the launch
// that is refused before it starts takes none; and clean launches
// afterwards are still right.
func TestFailedLaunchReturnsSlabs(t *testing.T) {
	clean := stampKernel(t, 3)
	for name, bad := range failingLaunches(t) {
		for _, seq := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sequentialSMs=%v", name, seq), func(t *testing.T) {
				cfg := MiniGPU()
				cfg.SequentialSMs = seq
				cfg.WatchdogWarpInstrs = 2000
				dev := NewDevice(cfg)
				dev.Dispatcher = failingDispatcher{}
				buf := dev.Alloc(4*24*64, "out")
				for i := 0; i < 3; i++ {
					var ke *KernelError
					if err := bad(dev); !errors.As(err, &ke) {
						t.Fatalf("launch error = %v, want a *KernelError", err)
					}
					if n := dev.LiveSlabs(); n != 0 {
						t.Fatalf("%d slabs outstanding after the failed launch", n)
					}
				}
				if _, err := dev.Launch(clean, "stamp", LaunchParams{
					Grid: D1(1), Block: D1(32), SharedBytes: cfg.SharedPerSM + 1, Args: []uint64{buf},
				}); err == nil || dev.LiveSlabs() != 0 {
					t.Errorf("oversized shared request: err %v, %d slabs outstanding", err, dev.LiveSlabs())
				}
				if _, err := dev.Launch(clean, "stamp", LaunchParams{
					Grid: D1(24), Block: D1(64), Args: []uint64{buf},
				}); err != nil {
					t.Fatal(err)
				}
				for j := uint64(0); j < 24*64; j++ {
					if got, _ := dev.Global.Read32(buf + 4*j); got != uint32(j%64)+3 {
						t.Fatalf("thread %d stored %d after the failed launches, want %d", j, got, j%64+3)
					}
				}
			})
		}
	}
}

// TestRecycledSlabReadsZeroStack: a thread carved from a slab whose last
// tenant filled its stack sees zeros, not the tenant's bytes.
func TestRecycledSlabReadsZeroStack(t *testing.T) {
	r := sass.R
	k := &sass.Kernel{Name: "peek", NumRegs: 16, Labels: map[string]int{}}
	out := k.AddParam("out", 8)
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{r(2)}, []sass.Operand{sass.CMem(0, int64(out))}),
		sass.New(sass.OpMOV, []sass.Operand{r(3)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
		{Guard: sass.Always, Op: sass.OpLDL, Dsts: []sass.Operand{r(7)}, Srcs: []sass.Operand{sass.Mem(sass.SP, -4)}},
		{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(2, 0), r(7)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	peek := sass.NewProgram()
	peek.AddKernel(k)
	cfg := MiniGPU()
	cfg.NumSMs = 1
	dev := NewDevice(cfg)
	buf := dev.Alloc(4, "out")
	if _, err := dev.Launch(stampKernel(t, 0xabcd), "stamp", LaunchParams{
		Grid: D1(1), Block: D1(1), Args: []uint64{dev.Alloc(4, "scratch")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Launch(peek, "peek", LaunchParams{Grid: D1(1), Block: D1(1), Args: []uint64{buf}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := dev.Global.Read32(buf); v != 0 {
		t.Errorf("fresh thread read %#x from its stack, want 0", v)
	}
}

// TestRetiredStacksAreDropped: what a device keeps after its launch retires
// is thread structs, registers and descriptors — it does not scale with
// threads x stack size. 2048 threads each write the bottom word of a 16 KiB
// stack (32 MiB materialised while resident); afterwards the device holds
// no stack bytes and the heap is back near where it started.
func TestRetiredStacksAreDropped(t *testing.T) {
	r := sass.R
	k := &sass.Kernel{Name: "deep", NumRegs: 16, Labels: map[string]int{}}
	k.Instrs = []sass.Instruction{
		{Guard: sass.Always, Op: sass.OpSTL, Srcs: []sass.Operand{sass.Mem(sass.RZ, 0), r(1)}},
		sass.New(sass.OpEXIT, nil, nil),
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	cfg := MiniGPU()
	cfg.SequentialSMs = true
	dev := NewDevice(cfg)
	const stack = 16 << 10
	peak := 0
	dev.CTARetire = func(cta *CTA) {
		n := 0
		for _, w := range cta.Warps {
			for _, th := range w.Threads {
				if th != nil {
					n += th.Local.Materialized()
				}
			}
		}
		peak = max(peak, n)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := dev.Launch(prog, "deep", LaunchParams{Grid: D1(8), Block: D1(256), StackBytes: stack}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if peak != 256*stack {
		t.Fatalf("a resident CTA materialised %d stack bytes, want %d", peak, 256*stack)
	}
	for sm := range dev.slabs {
		for _, s := range dev.slabs[sm].free {
			for i := range s.locals[:cap(s.locals)] {
				if n := s.locals[:cap(s.locals)][i].Materialized(); n != 0 {
					t.Fatalf("a free slab still holds %d stack bytes", n)
				}
			}
		}
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
		t.Errorf("heap grew %d bytes across a retired launch that materialised %d", grew, 8*256*stack)
	}
	runtime.KeepAlive(dev)
}
