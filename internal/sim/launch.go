package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"sassi/internal/mem"
	"sassi/internal/obs"
	"sassi/internal/sass"
)

// Dim3 is a CUDA-style 3D extent.
type Dim3 struct{ X, Y, Z int }

// D1 returns a 1-D extent.
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// D2 returns a 2-D extent.
func D2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the total element count.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x < 1 {
		x = 1
	}
	if y < 1 {
		y = 1
	}
	if z < 1 {
		z = 1
	}
	return x * y * z
}

// LaunchParams configures one kernel launch.
type LaunchParams struct {
	Grid  Dim3
	Block Dim3

	// Args holds one value per kernel parameter, in declaration order.
	// 32-bit parameters use the low word.
	Args []uint64

	// Twin, when non-nil, makes the warps it picks run a second kernel.
	Twin *Twin
}

// Twin selects, per warp, a second kernel for a launch: the warps it picks
// run Prog's kernel of the launched name — registers, local bytes,
// predecoded stream and handler symbols all taken from it — and the rest,
// in the same CTA or another, run the launched one. The two must share the
// name, the parameter layout and the static shared bytes, so that one
// constant bank, one shared window and one residency limit serve both;
// Launch returns a *TwinError otherwise. Every record a PC sampler, a trace
// or a MemWatch makes carries a PC and no kernel, so a launch with a Twin
// on a device with one of them attached is refused too.
// The fault campaigns use it to run instrumented code only in the warp an
// injection targets, and there only at the site the fault lands at (Site),
// and, where the golden run has shown that warp's CTA to share no global
// line with the others, to run that CTA alone (DESIGN.md "Per-warp kernel
// selection").
type Twin struct {
	Prog *sass.Program
	// Warps reports whether warp warp (its index in the CTA) of the CTA
	// with flat index cta runs Prog's kernel. SM goroutines call it
	// concurrently, once per warp.
	Warps func(cta, warp int) bool
	// CTAs, when non-nil, reports whether the CTA with flat index cta runs
	// at all; the others are skipped. Every CTA that runs does so on the
	// SM the whole grid would have given it, and the grid, SR_NCTAID and
	// SR_CTAID stay those of the launch.
	CTAs func(cta int) bool
	// Fence, when non-nil, vets the launch's global memory accesses, with
	// the lines an access touches (base addresses of Config.CoalesceBytes
	// lines, which may alias a reused buffer) and its kind: a warp load or
	// store after it has happened, a reduction atomic (see AccessReduce)
	// before it touches memory. The launch stops with a *FenceError where
	// it returns false. A fenced launch stops at every other global atomic
	// without asking, before it touches memory.
	Fence func(lines []uint64, kind Access) bool
	// Site, when non-nil, narrows the twin code of the warp holding its
	// thread, which Warps must pick, to one after-block: see TwinSite.
	Site *TwinSite
}

// TwinSite makes the warp a Twin's Warps picks for thread Thread run the
// launched kernel up to one site instance, the twin's after-block of that
// instance, and the launched kernel again. Prog's kernel must be the
// launched one with an after-block of injected instructions behind some of
// its instructions and nothing else added, which is what an injection pass
// that calls its handler after instructions (sassi.AfterRegWrites) makes.
//
// The warp counts the issues of instructions with an after-block in which
// Thread's lane executes; the Instance-th (from 0) is the site. When it has
// executed the site, the warp goes to the first instruction of the site's
// after-block in Prog's kernel, its divergence and call stacks moved to
// that kernel's numbering; when that block has run and the stack pointer
// row is what it was at the site, it comes back to the launched kernel at
// the instruction after the site; otherwise the launch stops with a
// *SkippedFrameError. Elsewhere it charges each after-block it
// skips to its issue count, so the watchdog decides as if it had run them.
// The block's handler sees the site as the first instance it is called
// for. The skipped blocks' stack frames are not in local memory: once the
// warp has come back, a load of its own from local memory below a lane's
// stack pointer stops the launch with a *SkippedFrameError. (DESIGN.md
// "Per-warp kernel selection".)
type TwinSite struct {
	// Thread is the grid-flat index of the thread.
	Thread uint64
	// Instance counts the site issues before the one whose block runs.
	Instance uint64
}

// SkippedFrameError reports a launch stopped because the warp of its
// Twin's Site could not run the launched kernel in place of the
// after-blocks it skips, at pc PC of that kernel: back in it, the warp
// loaded from local memory below a lane's stack pointer, where those
// blocks would have left their frames; or the site's after-block ended
// with the stack pointer row changed, or with a stack entry inside
// injected code. What the launch had done by then is left as it was.
type SkippedFrameError struct {
	Kernel string
	CTA    int
	PC     int
	Reason string
}

func (e *SkippedFrameError) Error() string {
	return fmt.Sprintf("sim: kernel %s: CTA %d pc=%d: %s", e.Kernel, e.CTA, e.PC, e.Reason)
}

// Access is the kind of a warp's global memory access.
type Access uint8

const (
	AccessLoad Access = iota
	AccessStore
	// AccessReduce is a reduction atomic: a global ATOM or RED that adds to
	// aligned 4-byte words and writes no register, so that nothing it
	// reads is observed and the order of reductions from different CTAs
	// cannot show.
	AccessReduce
	// AccessAtomic is any other global atomic.
	AccessAtomic
)

func (a Access) String() string {
	return [...]string{"load", "store", "reduction", "atomic"}[a]
}

// accessOf is the kind of a warp load (store).
func accessOf(store bool) Access {
	if store {
		return AccessStore
	}
	return AccessLoad
}

// TwinError reports a launch whose Twin cannot share it.
type TwinError struct {
	Kernel string
	Reason string
}

func (e *TwinError) Error() string {
	return fmt.Sprintf("sim: kernel %s: twin refused: %s", e.Kernel, e.Reason)
}

// FenceError reports a launch its Twin's Fence stopped: a warp of CTA CTA,
// at pc PC, made a global access of kind Access whose lines the fence
// refused, or issued a global atomic other than a reduction (Access is
// then AccessAtomic). What the launch had done by then is left as it was.
type FenceError struct {
	Kernel string
	CTA    int
	PC     int
	Access Access
}

func (e *FenceError) Error() string {
	return fmt.Sprintf("sim: kernel %s: CTA %d pc=%d: global %s outside the fence", e.Kernel, e.CTA, e.PC, e.Access)
}

// warpCode is what a warp takes from the kernel it runs.
type warpCode struct {
	k *sass.Kernel
	// pre is the predecoded form of k, which stepPre executes and from
	// which step, the reference loop, takes the scoreboard size.
	pre *preKernel
	// handlers is the owning program's JCAL symbol table; handlerIDs[i] is
	// pre.syms[i]'s handler id in it, -1 when the program does not link it.
	handlers   map[string]int
	handlerIDs []int
	// spans[id] is handler id's trace span name (only with a trace).
	spans      []string
	numRegs    int
	localBytes int
}

// code resolves what warps running k, a kernel of prog, take from it. A
// kernel that cannot run (preKernel.err) is an ErrInvalid KernelError.
func (d *Device) code(prog *sass.Program, k *sass.Kernel) (warpCode, error) {
	c := warpCode{k: k, handlers: prog.Handlers, numRegs: k.NumRegs, localBytes: k.LocalBytes + d.Cfg.DefaultStackBytes}
	c.pre = k.Lowered(predecode).(*preKernel)
	if err := c.pre.err; err != nil {
		return c, &KernelError{Kind: ErrInvalid, Kernel: k.Name, Detail: err.Error(), Err: err}
	}
	if len(c.pre.syms) > 0 {
		c.handlerIDs = make([]int, len(c.pre.syms))
		for i, sym := range c.pre.syms {
			if id, ok := prog.Handlers[sym]; ok {
				c.handlerIDs[i] = id
			} else {
				c.handlerIDs[i] = -1
			}
		}
	}
	if d.Trace != nil {
		for sym, id := range prog.Handlers {
			if id >= len(c.spans) {
				c.spans = append(c.spans, make([]string, id+1-len(c.spans))...)
			}
			c.spans[id] = "handler:" + sym
		}
	}
	// Every register an admitted kernel names lies below both bounds.
	c.numRegs = min(max(c.numRegs, sass.MinRegs), sass.NumGPR)
	return c, nil
}

// twinCode is what the warps a Twin picks take from it: its kernel's
// code, and the state of its Site (nil without one).
type twinCode struct {
	warpCode
	warps func(cta, warp int) bool
	site  *siteEntry
}

// twinCode checks that t's kernel can share a launch of k, whose code is
// base, on d and resolves its code.
func (d *Device) twinCode(t *Twin, k *sass.Kernel, base *warpCode) (*twinCode, error) {
	refuse := func(format string, args ...any) (*twinCode, error) {
		return nil, &TwinError{Kernel: k.Name, Reason: fmt.Sprintf(format, args...)}
	}
	if t.Prog == nil || t.Warps == nil {
		return refuse("no program or no warp set")
	}
	tk, ok := t.Prog.Kernel(k.Name)
	if !ok {
		return refuse("not in the twin program")
	}
	if !slices.Equal(tk.Params, k.Params) {
		return refuse("parameter layout %v differs from %v", tk.Params, k.Params)
	}
	if tk.SharedBytes != k.SharedBytes {
		return refuse("%d static shared bytes, launched kernel has %d", tk.SharedBytes, k.SharedBytes)
	}
	switch {
	case d.PCSamp != nil:
		return refuse("a PC sampler is attached")
	case d.Trace != nil:
		return refuse("a trace is attached")
	case d.MemWatch != nil:
		return refuse("a MemWatch is attached")
	case d.Probe != nil:
		return refuse("a site probe is attached")
	case t.Site != nil && d.Reference != nil:
		return refuse("the reference loop runs no site")
	}
	c, err := d.code(t.Prog, tk)
	if err != nil {
		return nil, err
	}
	tc := &twinCode{warpCode: c, warps: t.Warps}
	if t.Site != nil {
		pcs := c.pre.sitePCs
		if len(pcs) != len(base.pre.ins)+1 {
			return refuse("site: not the launched kernel with after-blocks")
		}
		tc.site = &siteEntry{pcs: pcs, left: t.Site.Instance}
	}
	return tc, nil
}

// Launch executes a kernel on the device and returns its statistics.
func (d *Device) Launch(prog *sass.Program, kernelName string, p LaunchParams) (*KernelStats, error) {
	k, ok := prog.Kernel(kernelName)
	if !ok {
		return nil, fmt.Errorf("sim: kernel %q not in program", kernelName)
	}
	if len(p.Args) != len(k.Params) {
		return nil, fmt.Errorf("sim: kernel %q wants %d args, got %d", kernelName, len(k.Params), len(p.Args))
	}
	sharedBytes := k.SharedBytes
	if sharedBytes > d.Cfg.SharedPerSM {
		return nil, fmt.Errorf("sim: CTA needs %d shared bytes, SM has %d", sharedBytes, d.Cfg.SharedPerSM)
	}
	base, err := d.code(prog, k)
	if err != nil {
		return nil, err
	}
	e := &engine{dev: d, base: base}
	if t := p.Twin; t != nil {
		if e.twin, err = d.twinCode(t, k, &e.base); err != nil {
			return nil, err
		}
		e.fence = t.Fence
	}
	if d.Trace != nil {
		d.nameTraceLanes()
		e.cycleBase = d.traceBase()
	}
	e.stats = &KernelStats{Kernel: kernelName, SMCycles: make([]uint64, d.Cfg.NumSMs)}
	e.sms = make([]smShard, d.Cfg.NumSMs)
	for i := range e.sms {
		e.sms[i].hier = mem.Hierarchy{
			L1: d.L1s[i], L2: d.L2s[i], DRAM: d.DRAMs[i],
			L1Latency: d.Cfg.L1Latency, L2Latency: d.Cfg.L2Latency,
		}
	}

	e.cb = constBank(k, p.Args)

	// Geometry.
	grid, block := p.Grid, p.Block
	normDim(&grid)
	normDim(&block)
	e.ntid = [3]uint32{uint32(block.X), uint32(block.Y), uint32(block.Z)}
	e.nctaid = [3]uint32{uint32(grid.X), uint32(grid.Y), uint32(grid.Z)}
	threadsPerCTA := block.Count()
	numCTAs := grid.Count()
	e.stats.CTAs = numCTAs
	e.stats.Threads = numCTAs * threadsPerCTA
	if e.twin != nil && e.twin.site != nil {
		s, thread := e.twin.site, p.Twin.Site.Thread
		s.cta = int(thread / uint64(threadsPerCTA))
		s.warp = int(thread % uint64(threadsPerCTA) / WarpSize)
		s.lane = 1 << (thread % uint64(threadsPerCTA) % WarpSize)
	}
	if d.Probe != nil {
		if err := e.attachProbe(k, numCTAs, threadsPerCTA); err != nil {
			return nil, err
		}
	}
	if d.PCSamp != nil {
		e.attachSampler(d.PCSamp, k)
	}

	// Residency limit per SM.
	maxResident := d.Cfg.MaxCTAsPerSM
	if threadsPerCTA > 0 {
		if byThreads := d.Cfg.MaxThreadsPerSM / threadsPerCTA; byThreads < maxResident {
			maxResident = byThreads
		}
	}
	if sharedBytes > 0 {
		if byShared := d.Cfg.SharedPerSM / sharedBytes; byShared < maxResident {
			maxResident = byShared
		}
	}
	if maxResident < 1 {
		maxResident = 1
	}

	// Distribute CTAs round-robin across SMs, then run each SM to
	// completion — one goroutine per SM by default. SMs share only the
	// internally-synchronized Global memory; all per-SM state (L1, L2
	// slice, DRAM channel, stat counters) lives in that SM's shard, so
	// the merged statistics are identical to the sequential engine's.
	// Every SM runs to its own completion or first error even when
	// another SM fails, and the lowest-numbered failing SM's error is
	// reported, keeping the outcome independent of goroutine timing.
	perSM := make([][]int, d.Cfg.NumSMs)
	var runs func(cta int) bool // nil: every CTA
	if p.Twin != nil {
		runs = p.Twin.CTAs
	}
	for c := 0; c < numCTAs; c++ {
		if runs != nil && !runs(c) {
			continue
		}
		sm := c % d.Cfg.NumSMs
		perSM[sm] = append(perSM[sm], c)
	}
	smErrs := make([]error, d.Cfg.NumSMs)
	// A MemWatch observer needs the sequential path: trace events funnel
	// into one callback, and their order is part of the exported trace.
	if d.Cfg.SequentialSMs || d.MemWatch != nil {
		for sm, ctas := range perSM {
			if len(ctas) == 0 {
				continue
			}
			smErrs[sm] = e.runSM(sm, ctas, grid, block, sharedBytes, maxResident)
		}
	} else {
		var wg sync.WaitGroup
		for sm, ctas := range perSM {
			if len(ctas) == 0 {
				continue
			}
			wg.Add(1)
			go func(sm int, ctas []int) {
				defer wg.Done()
				smErrs[sm] = e.runSM(sm, ctas, grid, block, sharedBytes, maxResident)
			}(sm, ctas)
		}
		wg.Wait()
	}
	e.finishStats()
	if d.Trace != nil {
		for sm := range perSM {
			if len(perSM[sm]) == 0 {
				continue
			}
			d.Trace.Span(obs.PidDevice, sm, "kernel:"+kernelName,
				float64(e.cycleBase), float64(e.sms[sm].cycles),
				map[string]any{"ctas": len(perSM[sm]), "launch_cycles": e.stats.Cycles})
		}
		d.traceAdvance(e.stats.Cycles)
	}
	e.publishMetrics()
	if e.samp != nil {
		// Merge even a failed launch's samples: profiles of crashing
		// kernels are exactly what a profiler is for.
		d.PCSamp.LaunchEnd(e.samp)
	}
	if e.probe != nil {
		e.probe.report(d.Probe)
	}
	for _, err := range smErrs {
		if err != nil {
			return e.stats, err
		}
	}
	return e.stats, nil
}

// constBank builds constant bank 0 of a launch of k with args: the launch
// metadata, then the parameters.
func constBank(k *sass.Kernel, args []uint64) []byte {
	cb := make([]byte, constBankSize(k))
	binary.LittleEndian.PutUint32(cb[sass.CBStackBase:], uint32(mem.LocalBase))
	binary.LittleEndian.PutUint32(cb[sass.CBSharedBase:], uint32(mem.SharedBase))
	for i, pd := range k.Params {
		switch pd.Size {
		case 8:
			binary.LittleEndian.PutUint64(cb[pd.Offset:], args[i])
		default:
			binary.LittleEndian.PutUint32(cb[pd.Offset:], uint32(args[i]))
		}
	}
	return cb
}

// constBankSize returns the size of constant bank 0 for every launch of k:
// the launch metadata, then the parameters. It depends on the kernel's
// parameter layout only, never on launch arguments.
func constBankSize(k *sass.Kernel) int {
	size := sass.ParamBase
	for _, pd := range k.Params {
		if end := pd.Offset + pd.Size; end > size {
			size = end
		}
	}
	return size
}

func normDim(d *Dim3) {
	if d.X < 1 {
		d.X = 1
	}
	if d.Y < 1 {
		d.Y = 1
	}
	if d.Z < 1 {
		d.Z = 1
	}
}

// finishStats merges the per-SM shards into the launch statistics. Every
// reduction is order-independent (sum or max), so the result does not
// depend on how the SM goroutines interleaved.
func (e *engine) finishStats() {
	s := e.stats
	for i := range e.sms {
		st := &e.sms[i]
		s.WarpInstrs += st.warpInstrs
		s.ThreadInstrs += st.threadInstrs
		s.InjectedWarpInstrs += st.injectedWarpInstrs
		s.InjectedThreadInstrs += st.injectedThreadInstrs
		s.HandlerCalls += st.handlerCalls
		s.GlobalTransactions += st.globalTransactions
		s.ScoreboardStalls += st.scoreboardStalls
		if st.maxWarpInstrs > s.MaxWarpInstrs {
			s.MaxWarpInstrs = st.maxWarpInstrs
		}
		s.SMCycles[i] = st.cycles
		if st.cycles > s.Cycles {
			s.Cycles = st.cycles
		}
	}
}

// publishMetrics pushes the launch's merged counters into the device's
// registry: per-SM sharded issue/stall/divergence counters (published once
// per launch from the single post-merge goroutine, so shard writes never
// race) and per-level memory-hierarchy gauges. A nil registry skips
// everything — the simulation itself never consults the registry.
func (e *engine) publishMetrics() {
	reg := e.dev.Metrics
	if reg == nil {
		return
	}
	n := e.dev.Cfg.NumSMs
	shard := func(name string) *obs.ShardedCounter { return reg.Sharded(name, n) }
	warp := shard(obs.MSimWarpInstrs)
	thread := shard(obs.MSimThreadInstrs)
	injW := shard(obs.MSimInjectedWarpInstrs)
	injT := shard(obs.MSimInjectedThreadInstrs)
	hcalls := shard(obs.MSimHandlerCalls)
	cycles := shard(obs.MSimCycles)
	stalls := shard(obs.MSimBarrierStalls)
	sbStalls := shard(obs.MSimScoreboardStalls)
	div := shard(obs.MSimDivergentBranches)
	ctas := shard(obs.MSimCTAs)
	gtrans := shard(obs.MMemGlobalTrans)
	for i := range e.sms {
		st := &e.sms[i]
		warp.AddShard(i, st.warpInstrs)
		thread.AddShard(i, st.threadInstrs)
		injW.AddShard(i, st.injectedWarpInstrs)
		injT.AddShard(i, st.injectedThreadInstrs)
		hcalls.AddShard(i, st.handlerCalls)
		cycles.AddShard(i, st.cycles)
		stalls.AddShard(i, st.barrierStallSweeps)
		sbStalls.AddShard(i, st.scoreboardStalls)
		div.AddShard(i, st.divergentBranches)
		ctas.AddShard(i, st.ctasRun)
		gtrans.AddShard(i, st.globalTransactions)
	}
	reg.Counter(obs.MSimLaunches).Inc()
	reg.Counter(obs.MSimThreads).Add(uint64(e.stats.Threads))
	reg.Gauge(obs.MSimMaxWarpInstrs).Set(e.stats.MaxWarpInstrs)
	mem.PublishHierarchy(reg, e.dev.L1Stats(), e.dev.L2Stats(), e.dev.DRAMTransactions())
}

// buildCTA instantiates the threads and warps of one CTA. Each warp runs
// the twin kernel if the launch has one and it picks the warp, the launched
// one otherwise, and is carved with its own kernel's registers, scoreboard
// and local bytes. The warp of a Twin.Site is carved with the twin's and
// starts on the launched kernel, as its SM's target.
func (e *engine) buildCTA(ctaIdx int, grid, block Dim3, sharedBytes, sm int) *CTA {
	cx := uint32(ctaIdx % grid.X)
	cy := uint32(ctaIdx / grid.X % grid.Y)
	cz := uint32(ctaIdx / (grid.X * grid.Y))
	cta := &CTA{
		Index:  ctaIdx,
		Shared: mem.NewShared(sharedBytes),
		SM:     sm,
	}
	threads := block.Count()
	shape := slabShape{threads: threads, warps: (threads + WarpSize - 1) / WarpSize}
	cta.Warps = make([]*Warp, shape.warps)
	for wi := range cta.Warps {
		code := &e.base
		if e.twin != nil && e.twin.warps(ctaIdx, wi) {
			code = &e.twin.warpCode
		}
		shape.regs += code.numRegs * WarpSize
		shape.sbSlots += code.pre.sbSlots
		cta.Warps[wi] = &Warp{CTA: cta, IDinCTA: wi, code: code}
	}
	cta.slab = e.dev.perSM[sm].slabs.get(shape)
	for wi, w := range cta.Warps {
		lanes := min(WarpSize, threads-wi*WarpSize)
		cta.slab.carveWarp(w, lanes)
		for lane := range w.threads {
			flat := wi*WarpSize + lane
			w.threads[lane] = Thread{
				TidX: uint32(flat % block.X), TidY: uint32(flat / block.X % block.Y),
				TidZ: uint32(flat / (block.X * block.Y)), FlatTid: uint32(flat),
				CtaX: cx, CtaY: cy, CtaZ: cz, LaneID: uint32(lane),
				GlobalFlat: uint64(ctaIdx)*uint64(threads) + uint64(flat), warp: w,
			}
		}
		w.Active = uint32(uint64(1)<<lanes - 1)
		w.Alive = w.Active
	}
	if s := e.siteOf(ctaIdx); s != nil && s.warp < len(cta.Warps) {
		if w := cta.Warps[s.warp]; w.code == &e.twin.warpCode {
			w.code = &e.base
			e.sms[sm].target = w
		}
	}
	return cta
}

// siteOf returns the launch's Twin.Site state if its thread is in CTA cta.
func (e *engine) siteOf(cta int) *siteEntry {
	if e.twin == nil || e.twin.site == nil || e.twin.site.cta != cta {
		return nil
	}
	return e.twin.site
}

// runSM executes all CTAs assigned to one SM, keeping up to maxResident
// CTAs concurrently resident and interleaving their warps round-robin, one
// instruction per warp per sweep.
func (e *engine) runSM(sm int, ctas []int, grid, block Dim3, sharedBytes, maxResident int) error {
	pending := ctas
	st := &e.sms[sm]
	tr := e.dev.Trace
	ref := e.dev.Reference != nil
	slabs := &e.dev.perSM[sm].slabs
	var resident []*CTA
	// A launch that fails leaves CTAs resident; their slabs go back too.
	defer func() {
		for _, cta := range resident {
			slabs.put(cta.slab)
		}
	}()
	for len(pending) > 0 || len(resident) > 0 {
		for len(resident) < maxResident && len(pending) > 0 {
			cta := e.buildCTA(pending[0], grid, block, sharedBytes, sm)
			cta.traceStart = st.cycles
			resident = append(resident, cta)
			pending = pending[1:]
		}
		progress := false
		// With exactly one live warp on the SM and nothing pending, no
		// other warp can observe the instruction interleaving, so the
		// predecoded core may run that warp back-to-back instead of one
		// instruction per sweep.
		solo := !ref && len(pending) == 0 && len(resident) == 1 &&
			resident[0].liveWarps() == 1
		// Read once per sweep: a load per warp step costs base-suite 4 %.
		target := st.target
		for _, cta := range resident {
			for _, w := range cta.Warps {
				if w.Done {
					continue
				}
				if w.AtBarrier {
					st.barrierStallSweeps++
					continue
				}
				var err error
				switch {
				case solo:
					err = e.runWarpSolo(w)
				case ref:
					err = e.step(w)
				case w == target:
					err = e.stepSite(w)
				default:
					err = e.stepPre(w)
				}
				if err != nil {
					return err
				}
				progress = true
			}
			// Barrier release once every live warp has arrived.
			if cta.barrierReady() {
				arrived := false
				for _, w := range cta.Warps {
					if w.AtBarrier {
						arrived = true
						break
					}
				}
				if arrived {
					cta.releaseBarrier()
					progress = true
				}
			}
		}
		// Retire completed CTAs.
		live := resident[:0]
		for _, cta := range resident {
			if cta.liveWarps() > 0 {
				live = append(live, cta)
				continue
			}
			st.ctasRun++
			if e.dev.CTARetire != nil {
				e.dev.CTARetire(cta)
			}
			if e.probe != nil {
				e.probe.retire(cta)
			}
			if tr != nil {
				tr.Span(obs.PidDevice, sm, fmt.Sprintf("cta %d", cta.Index),
					float64(e.cycleBase+cta.traceStart), float64(st.cycles-cta.traceStart), nil)
			}
			// After the retire observer: anyone wanting thread state
			// beyond this point must have copied it.
			slabs.put(cta.slab)
		}
		resident = live
		if !progress && len(resident) > 0 {
			return &KernelError{Kind: ErrHang, Kernel: e.stats.Kernel,
				Detail: fmt.Sprintf("SM %d deadlocked (barrier divergence?)", sm)}
		}
	}
	return nil
}
