package sassi_test

import (
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/mem"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// probe instruments a kernel and captures handler args for assertion. Its
// body is per-thread code, as the parameter objects are per-thread.
type probe struct {
	fn func(c device.Lane, args sassi.HandlerArgs)
}

// perLane adapts a per-thread body to the warp-level handler ABI: it runs
// once for every running lane, in ascending order.
func perLane(fn func(c device.Lane, args sassi.HandlerArgs)) sassi.HandlerFunc {
	return func(w *device.Warp, args sassi.HandlerArgs) {
		for l := w.First(); l >= 0; l = w.Next(l) {
			fn(w.Lane(l), args)
		}
	}
}

// runProbe compiles the store kernel if (i < 16) out[i] = i, instruments
// per opts, and runs with the probe handler. With branch set the store is
// repeated nine times, more than ptxas predicates in place of a branch, so
// the kernel keeps its conditional branch.
func runProbe(t *testing.T, opts sassi.Options, branch bool, p *probe) *cuda.Context {
	t.Helper()
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	cond := b.SetpI(sass.CmpLT, i, 16)
	stores := 1
	if branch {
		stores = 9
	}
	b.If(cond, func() {
		for range stores {
			b.StGlobalU32(b.Index(out, i, 2), 0, i)
		}
	})
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	rt := sassi.NewRuntime(prog)
	name := opts.BeforeHandler
	if name == "" {
		name = opts.AfterHandler
	}
	rt.MustRegister(&sassi.Handler{Name: name, What: opts.What, Fn: perLane(p.fn)})
	rt.Attach(ctx.Device())
	buf := ctx.Malloc(4 * 64)
	if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	}); err != nil {
		t.Fatal(err)
	}
	// Sanity: results intact.
	vals, _ := ctx.ReadU32(buf, 16)
	for i, v := range vals {
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d after instrumentation", i, v)
		}
	}
	return ctx
}

// TestBeforeParamsFields: the guarded store site exposes correct static
// info and per-thread will-execute flags.
func TestBeforeParamsFields(t *testing.T) {
	seen := 0
	p := &probe{fn: func(c device.Lane, args sassi.HandlerArgs) {
		bp := args.BP
		if bp.Opcode() != sass.OpSTG {
			return // other memory ops (none expected here)
		}
		seen++
		if !bp.IsMem() || !bp.IsMemWrite() || bp.IsMemRead() {
			t.Error("store misclassified")
		}
		if bp.IsTexture() || bp.IsSync() || bp.IsNumeric() {
			t.Error("spurious class bits")
		}
		wantExec := c.FlatThreadIdx() < 16
		if bp.InstrWillExecute(c.Index()) != wantExec {
			t.Errorf("thread %d willExec = %v", c.FlatThreadIdx(), bp.InstrWillExecute(c.Index()))
		}
		if bp.InsAddr() != bp.FnAddr()+bp.InsOffset() {
			t.Error("InsAddr identity broken")
		}
		if bp.FnAddr() != sassi.FnAddr(0) {
			t.Errorf("fnAddr = %#x", bp.FnAddr())
		}
	}}
	// Keep the guard (no if-conversion removes it to a branch...): with
	// default compile options the short body is predicated, so the STG
	// carries the guard directly.
	runProbe(t, sassi.Options{Where: sassi.BeforeMem, BeforeHandler: "h", What: sassi.PassMemoryInfo}, false, p)
	if seen == 0 {
		t.Fatal("probe never saw the store")
	}
}

// TestMemoryParamsAddress: the materialized effective address matches the
// actual per-thread store target.
func TestMemoryParamsAddress(t *testing.T) {
	var base uint64
	p := &probe{fn: func(c device.Lane, args sassi.HandlerArgs) {
		if args.BP.Opcode() != sass.OpSTG || !args.BP.InstrWillExecute(c.Index()) {
			return
		}
		mp := args.MP
		if mp == nil {
			t.Fatal("no memory params at a memory site")
		}
		addr := mp.Address(c.Index())
		if base == 0 {
			base = addr - 4*uint64(c.FlatThreadIdx())
		}
		want := base + 4*uint64(c.FlatThreadIdx())
		if addr != want {
			t.Errorf("thread %d address %#x, want %#x", c.FlatThreadIdx(), addr, want)
		}
		if !mp.IsStore() || mp.IsLoad() || mp.IsAtomic() {
			t.Error("memory params misclassified")
		}
		if mp.Width() != 4 {
			t.Errorf("width = %d", mp.Width())
		}
		if !mp.IsGlobal(c.Index()) || mp.Domain() != mem.SpaceGlobal {
			t.Error("domain wrong")
		}
	}}
	runProbe(t, sassi.Options{Where: sassi.BeforeMem, BeforeHandler: "h", What: sassi.PassMemoryInfo}, false, p)
	if base == 0 {
		t.Fatal("no active store observed")
	}
}

// TestCondBranchParams: direction matches the per-thread predicate.
func TestCondBranchParams(t *testing.T) {
	seen := false
	p := &probe{fn: func(c device.Lane, args sassi.HandlerArgs) {
		cb := args.CBP
		if cb == nil {
			t.Fatal("no branch params")
		}
		seen = true
		// The builder's If branches when the condition is FALSE (skip),
		// so direction == (tid >= 16).
		want := c.FlatThreadIdx() >= 16
		if cb.Direction(c.Index()) != want {
			t.Errorf("thread %d direction = %v", c.FlatThreadIdx(), cb.Direction(c.Index()))
		}
		if cb.TakenOffset() < 0 {
			t.Error("taken offset missing")
		}
		if cb.FallthroughOffset() <= 0 {
			t.Error("fallthrough offset missing")
		}
	}}
	runProbe(t, sassi.Options{Where: sassi.BeforeCondBranches, BeforeHandler: "h", What: sassi.PassCondBranchInfo},
		true, p)
	if !seen {
		t.Fatal("no conditional branch observed")
	}
}

// TestRegisterParamsValues: after-write sites expose the just-written
// values through the spill-aware accessor.
func TestRegisterParamsValues(t *testing.T) {
	seen := 0
	p := &probe{fn: func(c device.Lane, args sassi.HandlerArgs) {
		if !args.BP.InstrWillExecute(c.Index()) {
			return
		}
		rp := args.RP
		if rp == nil {
			t.Fatal("no register params")
		}
		// Find the S2R TID instruction: its dest must equal threadIdx.
		if args.BP.Opcode() == sass.OpS2R && rp.NumGPRDsts() == 1 {
			v := rp.GetRegValue(c.Index(), rp.GPRDst(0))
			// S2R reads one of several specials; tid.x sites match flat id.
			if v == c.FlatThreadIdx() {
				seen++
			}
		}
	}}
	runProbe(t, sassi.Options{Where: sassi.AfterRegWrites, AfterHandler: "h", What: sassi.PassRegisterInfo},
		false, p)
	if seen == 0 {
		t.Fatal("never observed the tid write")
	}
}

// TestSetRegValueThroughSpill: mutating a register from the handler
// survives the restore sequence and changes program output — the error
// injection capability.
func TestSetRegValueThroughSpill(t *testing.T) {
	// Flip bit 4 of the value the store writes (its data register), for
	// thread 3 only, at the site just before the store.
	p := &probe{fn: func(c device.Lane, args sassi.HandlerArgs) {
		if args.BP.Opcode() != sass.OpSTG || !args.BP.InstrWillExecute(c.Index()) {
			return
		}
		if c.FlatThreadIdx() != 3 {
			return
		}
		// The store's data register is its last GPR source.
		rp := args.RP
		if rp == nil || rp.NumGPRSrcs() == 0 {
			t.Fatal("no register info at store")
		}
		reg := rp.GPRSrc(rp.NumGPRSrcs() - 1)
		rp.SetRegValue(c.Index(), reg, rp.GetRegValue(c.Index(), reg)^16)
	}}

	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	b.StGlobalU32(b.Index(out, i, 2), 0, i)
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sassi.Instrument(prog, sassi.Options{
		Where: sassi.BeforeMem, BeforeHandler: "h", What: sassi.PassRegisterInfo,
	}); err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(&sassi.Handler{Name: "h", What: sassi.PassRegisterInfo, Fn: perLane(p.fn)})
	rt.Attach(ctx.Device())
	buf := ctx.Malloc(4 * 32)
	if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	}); err != nil {
		t.Fatal(err)
	}
	vals, _ := ctx.ReadU32(buf, 32)
	for i, v := range vals {
		want := uint32(i)
		if i == 3 {
			want = 3 ^ 16
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestSetPredAndCCThroughSpill: predicate and CC mutations are visible to
// the original code after the restore.
func TestSetPredAndCCThroughSpill(t *testing.T) {
	// Kernel: P-guarded store where P = (tid < 32) (always true). Handler
	// clears the branch predicate for thread 5 -> its store is skipped.
	flipped := false
	p := &probe{fn: func(c device.Lane, args sassi.HandlerArgs) {
		if args.BP.Opcode() != sass.OpSTG {
			return
		}
		if c.FlatThreadIdx() != 5 {
			return
		}
		bp := args.BP
		// Find a set predicate and clear it.
		for pr := uint8(0); pr < 7; pr++ {
			if bp.GetPredValue(c.Index(), pr) {
				bp.SetPredValue(c.Index(), pr, false)
				flipped = true
				break
			}
		}
		// Exercise CC accessors too.
		bp.SetCCValue(c.Index(), bp.GetCCValue(c.Index()))
	}}
	runProbe2 := func() []uint32 {
		b := ptx.NewKernel("k")
		out := b.ParamU64("out")
		i := b.GlobalTidX()
		cond := b.SetpI(sass.CmpLT, i, 32)
		b.If(cond, func() {
			b.StGlobalU32(b.Index(out, i, 2), 0, b.AddI(i, 100))
		})
		m := ptx.NewModule()
		m.Add(b.MustDone())
		prog, err := ptxas.Compile(m, ptxas.Options{}) // if-converted: @P0 STG
		if err != nil {
			t.Fatal(err)
		}
		if err := sassi.Instrument(prog, sassi.Options{
			Where: sassi.BeforeMem, BeforeHandler: "h",
		}); err != nil {
			t.Fatal(err)
		}
		ctx := cuda.NewContext(sim.MiniGPU())
		rt := sassi.NewRuntime(prog)
		rt.MustRegister(&sassi.Handler{Name: "h", Fn: perLane(p.fn)})
		rt.Attach(ctx.Device())
		buf := ctx.Malloc(4 * 32)
		if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
			Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)},
		}); err != nil {
			t.Fatal(err)
		}
		vals, _ := ctx.ReadU32(buf, 32)
		return vals
	}
	vals := runProbe2()
	if !flipped {
		t.Skip("kernel had no set predicate at the site (if-conversion changed shape)")
	}
	for i, v := range vals {
		want := uint32(i + 100)
		if i == 5 {
			want = 0 // store suppressed by the cleared predicate
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
}
