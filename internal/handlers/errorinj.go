package handlers

import (
	"sync/atomic"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/sass"
	"sassi/internal/sassi"
)

// Error injection (Case Study IV, §8) runs in two phases with two distinct
// handlers, matching the paper:
//
//  1. a profiling pass counts, per thread, the dynamic instructions that
//     write a register (or memory) and are not predicated off — the error
//     injection site space;
//  2. an injection pass flips one bit of one destination register of one
//     selected (thread, dynamic-instruction) tuple and lets the program
//     run unhindered.

// injWhere is the shared site selection: after instructions that write
// registers. (Predicated-off instances are filtered in the handler.)
func injWhere() sassi.Options {
	return sassi.Options{
		Where:        sassi.AfterRegWrites,
		What:         sassi.PassRegisterInfo,
		AfterHandler: "sassi_errorinj_handler",
	}
}

// InjProfiler counts qualifying dynamic instructions per thread.
type InjProfiler struct {
	ctx     *cuda.Context
	counts  cuda.DevPtr
	threads int
}

// NewInjProfiler allocates one counter per grid thread.
func NewInjProfiler(ctx *cuda.Context, maxThreads int) *InjProfiler {
	p := &InjProfiler{ctx: ctx, threads: maxThreads}
	p.counts = ctx.Malloc(uint64(8 * maxThreads))
	zero := make([]byte, 8*maxThreads)
	_ = ctx.MemcpyHtoD(p.counts, zero)
	return p
}

// Options returns the instrumentation specification for profiling.
func (p *InjProfiler) Options() sassi.Options { return injWhere() }

// Handler counts qualifying sites per thread: every lane whose instruction
// executes adds one to its thread's counter, the warp's adds issued as one
// batch.
func (p *InjProfiler) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_errorinj_handler",
		What: sassi.PassRegisterInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			var counters device.Vec64
			var counting uint32
			w.ReturnUnless(args.BP.WillExecuteMask())
			for l := w.First(); l >= 0; l = w.Next(l) {
				if tid := w.Lane(l).GlobalThreadIdx(); tid < uint64(p.threads) {
					counters[l] = uint64(p.counts) + tid*8
					counting |= 1 << l
				}
			}
			w.AtomicAdd64(&counters, counting, 1)
		},
	}
}

// Counts downloads the per-thread qualifying-instruction counts.
func (p *InjProfiler) Counts() ([]uint64, error) {
	return p.ctx.ReadU64(p.counts, p.threads)
}

// DevPtr exposes the device-side counter array (for host-side resets
// between launches).
func (p *InjProfiler) DevPtr() cuda.DevPtr { return p.counts }

// InjectionSite selects where a single bit flip lands, the tuple the
// paper's off-line stochastic step produces.
type InjectionSite struct {
	// Invocation selects the launch; the campaign driver (in
	// internal/faults) arms the injector only for that launch.
	Invocation int
	// ThreadID is the grid-flat thread index.
	ThreadID uint64
	// InstrIndex is the ordinal of the qualifying dynamic instruction
	// within that thread (0-based).
	InstrIndex uint64
	// DstSeed selects among the instruction's destinations; BitSeed
	// selects the bit to flip.
	DstSeed uint32
	BitSeed uint32
	// Target selects the state class: general purpose register, predicate,
	// or condition code.
	Target InjectTarget
}

// InjectTarget is the class of architectural state to corrupt.
type InjectTarget int

// Injection targets.
const (
	TargetGPR InjectTarget = iota
	TargetPred
	TargetCC
)

// Injector is the second-phase handler: it counts qualifying instructions
// on the selected thread and mutates architectural state at the selected
// one. The injector is disarmed after the flip so later launches are
// untouched. The armed/injected flags are atomics because every SM
// goroutine's handler invocations read them while the one goroutine
// running the target thread may set injected mid-launch.
type Injector struct {
	Site InjectionSite

	armed    atomic.Bool
	injected atomic.Bool
	counter  uint64 // dynamic qualifying instructions seen on the target thread
}

// NewInjector prepares an injector for one site.
func NewInjector(site InjectionSite) *Injector {
	return &Injector{Site: site}
}

// Options returns the instrumentation specification for injection runs.
func (inj *Injector) Options() sassi.Options { return injWhere() }

// Skip starts the injector's count at n: the target thread has executed n
// qualifying instructions in code that does not call the handler (a
// sim.TwinSite's warp before its site).
func (inj *Injector) Skip(n uint64) { inj.counter = n }

// Arm enables the injector (the campaign driver arms it when the selected
// kernel invocation is reached, via CUPTI callbacks).
func (inj *Injector) Arm() { inj.armed.Store(true) }

// Disarm disables the injector after the selected launch.
func (inj *Injector) Disarm() { inj.armed.Store(false) }

// Handler performs the bit flip at the selected site. State mutation goes
// through the spill-aware Set* accessors so the flipped value survives the
// restore sequence — the capability CUDA-GDB-based injection lacked.
func (inj *Injector) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_errorinj_handler",
		What: sassi.PassRegisterInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			if !inj.armed.Load() || inj.injected.Load() {
				return
			}
			for l := w.First(); l >= 0; l = w.Next(l) {
				if w.Lane(l).GlobalThreadIdx() != inj.Site.ThreadID {
					continue
				}
				if !args.BP.InstrWillExecute(l) {
					return
				}
				idx := inj.counter
				inj.counter++
				if idx == inj.Site.InstrIndex {
					inj.inject(l, args)
				}
				return
			}
		},
	}
}

// inject flips the selected state of lane l, the target thread.
func (inj *Injector) inject(l int, args sassi.HandlerArgs) {
	bp := args.BP
	rp := args.RP
	switch inj.Site.Target {
	case TargetPred:
		// After an ISETP, FSETP or PSETP, flip predicate P(DstSeed % 7),
		// one of P0..P6 whichever predicates the instruction wrote, so
		// the flip may land on a predicate it did not write. After any
		// other instruction, fall back to a GPR flip.
		if op := bp.Opcode(); op == sass.OpISETP || op == sass.OpFSETP || op == sass.OpPSETP {
			p := uint8(inj.Site.DstSeed % 7)
			bp.SetPredValue(l, p, !bp.GetPredValue(l, p))
			inj.injected.Store(true)
			return
		}
		fallthrough
	case TargetGPR:
		nd := rp.NumGPRDsts()
		if nd == 0 {
			// Register-less qualifying instruction (e.g. a store with CC);
			// flip CC instead.
			inj.flipCC(l, bp)
			return
		}
		d := int(inj.Site.DstSeed) % nd
		reg := rp.GPRDst(d)
		bit := inj.Site.BitSeed % 32
		rp.SetRegValue(l, reg, rp.GetRegValue(l, reg)^(1<<bit))
		inj.injected.Store(true)
	case TargetCC:
		inj.flipCC(l, bp)
	}
}

func (inj *Injector) flipCC(l int, bp sassi.BeforeParams) {
	bit := inj.Site.BitSeed % 4
	bp.SetCCValue(l, bp.GetCCValue(l)^(1<<bit))
	inj.injected.Store(true)
}
