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

	// SharedBytes is extra dynamic shared memory per CTA.
	SharedBytes int

	// StackBytes overrides the per-thread local memory size (0 = config
	// default plus the kernel's static requirement).
	StackBytes int

	// Twin, when non-nil, makes part of the grid run a second kernel.
	Twin *Twin
}

// Twin selects, per CTA, a second kernel for a launch: the CTAs it picks
// run Prog's kernel of the launched name — registers, local bytes,
// predecoded stream and handler symbols all taken from it — and the rest
// run the launched one. The two must share the name, the parameter layout
// and the static shared bytes, so that one constant bank and one residency
// limit serve both; Launch returns a *TwinError otherwise. Every record a
// PC sampler, a trace or a MemWatch makes carries a PC and no kernel, so a
// launch with a Twin on a device with one of them attached is refused too.
// The fault campaigns use it to run instrumented code only in the CTA an
// injection targets (DESIGN.md "Per-CTA kernel selection").
type Twin struct {
	Prog *sass.Program
	// CTAs reports whether the CTA with this flat index runs Prog's
	// kernel. SM goroutines call it concurrently, once per CTA.
	CTAs func(cta int) bool
}

// TwinError reports a launch whose Twin cannot share it.
type TwinError struct {
	Kernel string
	Reason string
}

func (e *TwinError) Error() string {
	return fmt.Sprintf("sim: kernel %s: twin refused: %s", e.Kernel, e.Reason)
}

// ctaCode is what a CTA takes from the kernel it runs.
type ctaCode struct {
	k *sass.Kernel
	// pre is the predecoded form of k, which stepPre executes; nil selects
	// the reference interpreter (Config.ReferenceInterpreter), step.
	pre *preKernel
	// handlers is the owning program's JCAL symbol table.
	handlers   map[string]int
	numRegs    int
	localBytes int
}

// code resolves what CTAs running k, a kernel of prog, take from it.
func (d *Device) code(prog *sass.Program, k *sass.Kernel, p *LaunchParams) ctaCode {
	c := ctaCode{k: k, handlers: prog.Handlers, numRegs: k.NumRegs, localBytes: p.StackBytes}
	if !d.Cfg.ReferenceInterpreter {
		c.pre = k.Lowered(predecode).(*preKernel)
	}
	if c.numRegs < 16 {
		c.numRegs = 16
	}
	if c.localBytes == 0 {
		c.localBytes = k.LocalBytes + d.Cfg.DefaultStackBytes
	}
	return c
}

// twinCode checks that t's kernel can share a launch of k on d and
// resolves its code.
func (d *Device) twinCode(t *Twin, k *sass.Kernel, p *LaunchParams) (*ctaCode, error) {
	refuse := func(format string, args ...any) (*ctaCode, error) {
		return nil, &TwinError{Kernel: k.Name, Reason: fmt.Sprintf(format, args...)}
	}
	if t.Prog == nil || t.CTAs == nil {
		return refuse("no program or no CTA set")
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
	}
	c := d.code(t.Prog, tk, p)
	return &c, nil
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
	sharedBytes := k.SharedBytes + p.SharedBytes
	if sharedBytes > d.Cfg.SharedPerSM {
		return nil, fmt.Errorf("sim: CTA needs %d shared bytes, SM has %d", sharedBytes, d.Cfg.SharedPerSM)
	}
	e := &engine{dev: d, base: d.code(prog, k, &p)}
	if t := p.Twin; t != nil {
		var err error
		if e.twin, err = d.twinCode(t, k, &p); err != nil {
			return nil, err
		}
		e.twinCTAs = t.CTAs
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

	// Build constant bank 0: launch metadata then parameters.
	e.cb = make([]byte, constBankSize(k))
	binary.LittleEndian.PutUint32(e.cb[sass.CBStackBase:], uint32(mem.LocalBase))
	binary.LittleEndian.PutUint32(e.cb[sass.CBSharedBase:], uint32(mem.SharedBase))
	for i, pd := range k.Params {
		switch pd.Size {
		case 8:
			binary.LittleEndian.PutUint64(e.cb[pd.Offset:], p.Args[i])
		default:
			binary.LittleEndian.PutUint32(e.cb[pd.Offset:], uint32(p.Args[i]))
		}
	}

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
	if d.PCSamp != nil {
		e.attachSampler(d.PCSamp, k, threadsPerCTA)
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
	for c := 0; c < numCTAs; c++ {
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
	for _, err := range smErrs {
		if err != nil {
			return e.stats, err
		}
	}
	return e.stats, nil
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

// buildCTA instantiates the threads and warps of one CTA, running the twin
// kernel if the launch has one and it picks this CTA.
func (e *engine) buildCTA(ctaIdx int, grid, block Dim3, sharedBytes, sm int) *CTA {
	code := &e.base
	if e.twin != nil && e.twinCTAs(ctaIdx) {
		code = e.twin
	}
	numRegs, localBytes := code.numRegs, code.localBytes
	cx := uint32(ctaIdx % grid.X)
	cy := uint32(ctaIdx / grid.X % grid.Y)
	cz := uint32(ctaIdx / (grid.X * grid.Y))
	cta := &CTA{
		Index: ctaIdx, CtaX: cx, CtaY: cy, CtaZ: cz,
		Shared: mem.NewShared(sharedBytes),
		SM:     sm,
		Kernel: code.k, pre: code.pre,
	}
	threads := block.Count()
	cta.slab = e.dev.slabs[sm].get(threads, numRegs)
	numWarps := (threads + WarpSize - 1) / WarpSize
	for wi := 0; wi < numWarps; wi++ {
		w := &Warp{CTA: cta, IDinCTA: wi}
		for lane := 0; lane < WarpSize; lane++ {
			flat := wi*WarpSize + lane
			if flat >= threads {
				break
			}
			t := cta.slab.newThread(numRegs, localBytes)
			t.FlatTid = uint32(flat)
			t.TidX = uint32(flat % block.X)
			t.TidY = uint32(flat / block.X % block.Y)
			t.TidZ = uint32(flat / (block.X * block.Y))
			t.CtaX, t.CtaY, t.CtaZ = cx, cy, cz
			t.LaneID = uint32(lane)
			t.GlobalFlat = uint64(ctaIdx)*uint64(threads) + uint64(flat)
			t.warp = w
			w.Threads[lane] = t
			w.Active |= 1 << lane
			w.Alive |= 1 << lane
		}
		cta.Warps = append(cta.Warps, w)
	}
	return cta
}

// runSM executes all CTAs assigned to one SM, keeping up to maxResident
// CTAs concurrently resident and interleaving their warps round-robin, one
// instruction per warp per sweep.
func (e *engine) runSM(sm int, ctas []int, grid, block Dim3, sharedBytes, maxResident int) error {
	pending := ctas
	st := &e.sms[sm]
	tr := e.dev.Trace
	ref := e.dev.Cfg.ReferenceInterpreter
	slabs := &e.dev.slabs[sm]
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
		// predecoded core may run that warp's whole basic blocks
		// back-to-back instead of one instruction per sweep.
		solo := !ref && len(pending) == 0 && len(resident) == 1 &&
			resident[0].liveWarps() == 1
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
