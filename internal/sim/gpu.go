// Package sim is a SIMT GPU simulator: it executes SASS programs
// (internal/sass) over a device model with streaming multiprocessors,
// 32-lane warps, a stack-based divergence/reconvergence mechanism, CTA-wide
// barriers, predication, and the memory hierarchy of internal/mem.
//
// The simulator is functional-first (architecturally visible state is
// exact) with a cycle-approximate timing model used only for relative
// comparisons such as the paper's Table 3 overhead ratios.
package sim

import (
	"fmt"
	"sync"

	"sassi/internal/mem"
	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
)

// WarpSize is the number of threads per warp (fixed, as on NVIDIA parts).
const WarpSize = 32

// Config describes the simulated GPU.
type Config struct {
	Name string

	NumSMs          int
	MaxCTAsPerSM    int
	MaxThreadsPerSM int
	SharedPerSM     int // bytes

	// Memory system.
	L1Bytes   uint64 // 0 disables L1 (global accesses go straight to L2)
	L1Line    uint64
	L1Ways    int
	L1Latency int
	L2Bytes   uint64
	L2Line    uint64
	L2Ways    int
	L2Latency int
	DRAMLat   int

	// CoalesceBytes is the address-divergence granularity (paper: 32B).
	CoalesceBytes uint64

	// WatchdogWarpInstrs aborts a warp (as a hang) after this many dynamic
	// instructions. Zero means a generous default.
	WatchdogWarpInstrs uint64

	// HandlerBodyCost is the cycle charge for one instrumentation-handler
	// body invocation (the Go handler stands in for compiled CUDA whose
	// instructions the simulator cannot count directly). The ABI setup and
	// spill code around the call is real SASS and is charged exactly.
	HandlerBodyCost int

	// DefaultStackBytes is the per-thread local memory size when a kernel
	// does not request more.
	DefaultStackBytes int

	// SequentialSMs simulates SMs one after another on the calling goroutine
	// instead of one goroutine per SM. Results are bit-equal either way; it
	// is the one SM-dispatch knob, for debugging and for callers whose
	// observers need a deterministic event order (a MemWatch forces it).
	SequentialSMs bool

	// ReferenceInterpreter makes Launch execute the kernel's
	// sass.Instructions one at a time with the original interpreter (step)
	// instead of the predecoded core. It exists for the equivalence oracles
	// only — difftest, TestPredecodedBitEqualAllWorkloads and the handler
	// goldens compare the default path against it bit for bit — runs
	// several times slower, and is set by no CLI.
	ReferenceInterpreter bool
}

// KeplerK10 approximates the paper's Tesla K10 G2 target (case studies
// I-III ran there).
func KeplerK10() Config {
	return Config{
		Name:   "tesla-k10-sim",
		NumSMs: 8, MaxCTAsPerSM: 16, MaxThreadsPerSM: 2048, SharedPerSM: 48 << 10,
		L1Bytes: 16 << 10, L1Line: 128, L1Ways: 4, L1Latency: 30,
		L2Bytes: 512 << 10, L2Line: 128, L2Ways: 16, L2Latency: 160,
		DRAMLat: 300, CoalesceBytes: 32,
		WatchdogWarpInstrs: 200_000_000,
		HandlerBodyCost:    32,
		DefaultStackBytes:  4096,
	}
}

// KeplerK20 approximates the Tesla K20 used by the error-injection study.
func KeplerK20() Config {
	c := KeplerK10()
	c.Name = "tesla-k20-sim"
	c.NumSMs = 13
	c.L2Bytes = 1280 << 10
	return c
}

// KeplerK40 approximates the Tesla K40m used for the Table 3 overhead runs.
func KeplerK40() Config {
	c := KeplerK10()
	c.Name = "tesla-k40-sim"
	c.NumSMs = 15
	c.L2Bytes = 1536 << 10
	return c
}

// MiniGPU is a small configuration for unit tests.
func MiniGPU() Config {
	c := KeplerK10()
	c.Name = "mini-sim"
	c.NumSMs = 2
	c.MaxCTAsPerSM = 4
	return c
}

func (c *Config) normalize() {
	if c.NumSMs <= 0 {
		c.NumSMs = 1
	}
	if c.MaxCTAsPerSM <= 0 {
		c.MaxCTAsPerSM = 8
	}
	if c.MaxThreadsPerSM <= 0 {
		c.MaxThreadsPerSM = 2048
	}
	if c.SharedPerSM <= 0 {
		c.SharedPerSM = 48 << 10
	}
	if c.CoalesceBytes == 0 {
		c.CoalesceBytes = 32
	}
	if c.WatchdogWarpInstrs == 0 {
		c.WatchdogWarpInstrs = 200_000_000
	}
	if c.HandlerBodyCost == 0 {
		c.HandlerBodyCost = 32
	}
	if c.DefaultStackBytes == 0 {
		c.DefaultStackBytes = 4096
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 512 << 10
	}
	if c.L2Line == 0 {
		c.L2Line = 128
	}
	if c.L2Ways == 0 {
		c.L2Ways = 16
	}
}

// Device is one simulated GPU: configuration, device memory, and the
// memory hierarchy. The L2 is modeled as banked: each SM owns one slice
// (L2s[i]) holding an equal share of the configured capacity, and each
// slice drains into its own DRAM channel (DRAMs[i]). Every hierarchy
// level an SM touches is therefore private to that SM's goroutine, which
// is what lets SMs execute in parallel while keeping cache statistics a
// pure function of the per-SM access stream — bit-equal no matter how
// the goroutines interleave.
type Device struct {
	Cfg    Config
	Global *mem.Global
	L2s    []*mem.Cache
	DRAMs  []*mem.DRAM
	L1s    []*mem.Cache
	Coal   *mem.Coalescer

	// Dispatcher executes JCAL'd instrumentation handlers. Nil means any
	// JCAL faults (no handlers linked). Implementations must tolerate
	// concurrent calls from different SM goroutines.
	Dispatcher Dispatcher

	// MemWatch, when non-nil, observes every warp-level global memory
	// access after coalescing (trace export, §9.4 "driving other
	// simulators"). Setting it forces sequential SM execution so the
	// recorded event order is deterministic. ev.Res may alias an engine
	// buffer reused on the next access: observers must copy ev.Res.Lines
	// if they keep it past the callback.
	MemWatch func(ev MemAccess)

	// Metrics, when non-nil, receives the launch's counters at kernel
	// exit: per-SM issue/stall/divergence sharded counters and per-level
	// memory-hierarchy gauges. The warp-issue hot path never touches it —
	// counts accumulate in per-SM shard fields and are published once per
	// launch, so a nil registry costs nothing and a non-nil one merges
	// order-independently (bit-equal parallel vs sequential).
	Metrics *obs.Registry

	// Trace, when non-nil, records device-lane spans (per-SM kernel and
	// CTA spans, handler-dispatch spans) on the obs timeline. Span
	// timestamps are modeled cycles offset by a per-device base so
	// successive launches stack instead of overlapping.
	Trace *obs.Tracer

	// PCSamp, when non-nil, attaches the cycle-cadence PC-sampling
	// profiler to every launch: the warp whose issue+stall window crosses
	// a multiple of the sampling period records (PC, warp, active lanes,
	// stall reason, call stack) into its SM's single-writer ring buffer.
	// Buffers merge order-independently at launch end, so profiles are
	// bit-identical between the sequential and concurrent engines, and
	// the hot path allocates nothing (same discipline as Metrics).
	PCSamp *pcsamp.Sampler

	// CTARetire, when non-nil, observes every CTA at retirement, after its
	// last warp exits and before its state is discarded (the differential
	// harness snapshots final register files, shared and local memory
	// here). Called from SM goroutines, so implementations must tolerate
	// concurrent calls; CTA.Index identifies the block deterministically.
	CTARetire func(cta *CTA)

	traceMu        sync.Mutex
	traceNamed     bool
	traceCycleBase uint64

	// slabs holds each SM's free list of CTA slabs (see arena.go).
	slabs []slabList
}

// LiveSlabs returns how many CTA slabs are carved out and not yet returned
// to the device: zero between launches, however the last one ended.
func (d *Device) LiveSlabs() int {
	n := 0
	for i := range d.slabs {
		n += d.slabs[i].live
	}
	return n
}

// MemAccess is one observed warp-level memory transaction set, tagged with
// the SM and (launch-global) warp that issued it so traces can be
// correlated with per-SM timelines.
type MemAccess struct {
	PC int
	// SM is the streaming multiprocessor the warp ran on.
	SM int
	// Warp is the launch-global warp id: CTA index times warps-per-CTA
	// plus the warp's index within its CTA.
	Warp  int
	Store bool
	Res   mem.Result
}

// traceBase reserves the device-timeline window for a launch expected to
// span cycles, returning the window's base cycle.
func (d *Device) traceBase() uint64 {
	d.traceMu.Lock()
	defer d.traceMu.Unlock()
	return d.traceCycleBase
}

// traceAdvance moves the device timeline past a completed launch.
func (d *Device) traceAdvance(cycles uint64) {
	d.traceMu.Lock()
	d.traceCycleBase += cycles
	d.traceMu.Unlock()
}

// nameTraceLanes emits the one-time lane metadata for this device.
func (d *Device) nameTraceLanes() {
	d.traceMu.Lock()
	defer d.traceMu.Unlock()
	if d.traceNamed {
		return
	}
	d.traceNamed = true
	d.Trace.NameProcess(obs.PidDevice, d.Cfg.Name+" (cycles)")
	for sm := 0; sm < d.Cfg.NumSMs; sm++ {
		d.Trace.NameThread(obs.PidDevice, sm, fmt.Sprintf("SM %d", sm))
	}
}

// L1Stats returns the device-wide L1 statistics (sum over per-SM caches;
// zero when the configuration disables L1).
func (d *Device) L1Stats() mem.CacheStats {
	var s mem.CacheStats
	for _, c := range d.L1s {
		if c != nil {
			s.Add(c.Stats)
		}
	}
	return s
}

// Dispatcher runs an instrumentation handler for one warp at a call site.
type Dispatcher interface {
	// Dispatch executes handler handlerID for the active lanes of w.
	// The injected SASS has already marshalled arguments into the ABI
	// registers (R4..R7) of each active lane. Dispatch may be invoked
	// concurrently from different SM goroutines.
	Dispatch(dev *Device, w *Warp, handlerID int) error
}

// floorPow2 returns the largest power of two <= n (minimum 1).
func floorPow2(n uint64) uint64 {
	if n < 1 {
		return 1
	}
	p := uint64(1)
	for p<<1 <= n {
		p <<= 1
	}
	return p
}

// l2SliceBytes returns the capacity of one SM's L2 slice. The total set
// count is split evenly across SMs and rounded down to a power of two
// (NumSMs values like 13 or 15 don't divide it exactly; the cache model
// wants power-of-two sets).
func l2SliceBytes(cfg *Config) uint64 {
	totalSets := cfg.L2Bytes / (uint64(cfg.L2Ways) * cfg.L2Line)
	sliceSets := floorPow2(totalSets / uint64(cfg.NumSMs))
	return sliceSets * uint64(cfg.L2Ways) * cfg.L2Line
}

// NewDevice builds a device from a config.
func NewDevice(cfg Config) *Device {
	cfg.normalize()
	d := &Device{
		Cfg:    cfg,
		Global: mem.NewGlobal(),
		Coal:   mem.NewCoalescer(cfg.CoalesceBytes),
		slabs:  make([]slabList, cfg.NumSMs),
	}
	slice := l2SliceBytes(&cfg)
	d.L2s = make([]*mem.Cache, cfg.NumSMs)
	d.DRAMs = make([]*mem.DRAM, cfg.NumSMs)
	d.L1s = make([]*mem.Cache, cfg.NumSMs)
	for i := range d.L1s {
		d.L2s[i] = mem.NewCache(fmt.Sprintf("L2.%d", i), slice, cfg.L2Line, cfg.L2Ways)
		d.DRAMs[i] = &mem.DRAM{LatencyCycles: cfg.DRAMLat}
		if cfg.L1Bytes > 0 {
			d.L1s[i] = mem.NewCache(fmt.Sprintf("L1.%d", i), cfg.L1Bytes, cfg.L1Line, cfg.L1Ways)
		}
	}
	return d
}

// Reset returns the device to what NewDevice(d.Cfg) gives — empty global
// memory with strict bounds, cold caches with zero statistics, nothing
// attached — while keeping what it has allocated for itself: global pages,
// cache tag arrays and the SMs' slab lists. A device on which a launch left
// a slab carved out is not reset: reusing it could alias a dead CTA's
// threads into the next run.
func (d *Device) Reset() error {
	if n := d.LiveSlabs(); n != 0 {
		return fmt.Errorf("sim: reset with %d CTA slabs still carved out", n)
	}
	d.Global.Reset()
	for i := range d.L2s {
		d.L2s[i].Reset()
		d.DRAMs[i].Transactions = 0
		if d.L1s[i] != nil {
			d.L1s[i].Reset()
		}
	}
	*d = Device{
		Cfg: d.Cfg, Global: d.Global, Coal: d.Coal,
		L2s: d.L2s, DRAMs: d.DRAMs, L1s: d.L1s, slabs: d.slabs,
	}
	return nil
}

// L2Stats returns the device-wide L2 statistics: the order-independent sum
// over the per-SM slices.
func (d *Device) L2Stats() mem.CacheStats {
	var s mem.CacheStats
	for _, c := range d.L2s {
		s.Add(c.Stats)
	}
	return s
}

// DRAMTransactions returns total DRAM traffic across all channels.
func (d *Device) DRAMTransactions() uint64 {
	var n uint64
	for _, ch := range d.DRAMs {
		n += ch.Transactions
	}
	return n
}

// Alloc reserves device memory (cudaMalloc analog).
func (d *Device) Alloc(size uint64, name string) uint64 { return d.Global.Alloc(size, name) }

// KernelStats reports what one launch executed and (approximately) cost.
type KernelStats struct {
	Kernel string

	// WarpInstrs counts warp-level instruction issues; ThreadInstrs counts
	// per-lane executions (guard-enabled lanes only).
	WarpInstrs   uint64
	ThreadInstrs uint64

	// InjectedWarpInstrs/InjectedThreadInstrs count only instructions the
	// SASSI instrumentor inserted, so overhead can be attributed.
	InjectedWarpInstrs   uint64
	InjectedThreadInstrs uint64

	// HandlerCalls counts instrumentation-handler invocations (warp level).
	HandlerCalls uint64

	// MaxWarpInstrs is the largest dynamic instruction count any single
	// warp executed (used to calibrate fault-campaign watchdogs).
	MaxWarpInstrs uint64

	// GlobalTransactions counts coalesced global-memory line transactions.
	GlobalTransactions uint64

	// ScoreboardStalls is the total cycles warps spent stalled on
	// register read-after-write/write-after-write hazards (the per-warp
	// scoreboard model). It is the reward signal the SASS scheduling
	// autotuner minimizes.
	ScoreboardStalls uint64

	// Cycles is the modeled kernel duration: the maximum busy-cycle count
	// across SMs.
	Cycles uint64
	// SMCycles holds the per-SM busy cycles.
	SMCycles []uint64

	// CTAs and Threads record the launch geometry.
	CTAs    int
	Threads int
}

// ErrKind classifies how a kernel ended.
type ErrKind int

// Kernel termination kinds.
const (
	ErrNone     ErrKind = iota
	ErrMemFault         // illegal address (paper: crash)
	ErrHang             // watchdog fired
	ErrInvalid          // illegal instruction / simulator limit
	ErrAssert           // device-side assertion (workload-defined)
)

func (k ErrKind) String() string {
	switch k {
	case ErrNone:
		return "ok"
	case ErrMemFault:
		return "memory fault"
	case ErrHang:
		return "hang"
	case ErrInvalid:
		return "invalid operation"
	case ErrAssert:
		return "device assert"
	}
	return "unknown"
}

// KernelError is the launch-failure analog of a CUDA error status.
type KernelError struct {
	Kind   ErrKind
	Kernel string
	Detail string
	// Err is the error raised below the engine that failed the launch —
	// a *mem.Fault, or what the handler dispatcher returned — when there
	// is one; Detail already carries its text.
	Err error
}

func (e *KernelError) Error() string {
	return fmt.Sprintf("kernel %s: %s: %s", e.Kernel, e.Kind, e.Detail)
}

// Unwrap returns the cause, so errors.As reaches e.g. a
// *sassi.HandlerError through what Launch returns.
func (e *KernelError) Unwrap() error { return e.Err }
