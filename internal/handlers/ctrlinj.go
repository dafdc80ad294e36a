package handlers

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"sassi/internal/device"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// CtrlClass enumerates the control-state corruption classes of the CFI
// fault campaigns. Each models a distinct way warp control state goes
// wrong: a flipped return address, a corrupted divergence-stack frame
// (resume PC or lane mask), or a forged call frame — the stack-discipline
// analog of a rewritten call target, since the warp will "return" to the
// attacker-chosen address.
type CtrlClass int

// The corruption classes.
const (
	CtrlRetBitFlip CtrlClass = iota
	CtrlDivPCBitFlip
	CtrlDivMaskBitFlip
	CtrlForgedCall
	NumCtrlClasses
)

// String names the class for tables and flags.
func (c CtrlClass) String() string {
	switch c {
	case CtrlRetBitFlip:
		return "ret-addr"
	case CtrlDivPCBitFlip:
		return "div-pc"
	case CtrlDivMaskBitFlip:
		return "div-mask"
	case CtrlForgedCall:
		return "forged-call"
	}
	return fmt.Sprintf("class-%d", int(c))
}

// qualifies reports whether a warp's state at a site can host this
// corruption class.
func (c CtrlClass) qualifies(w *sim.Warp) bool {
	switch c {
	case CtrlRetBitFlip:
		return w.CallDepth() > 0
	case CtrlDivPCBitFlip, CtrlDivMaskBitFlip:
		return w.DivDepth() > 0
	default: // CtrlForgedCall: any site
		return true
	}
}

// CtrlWarpKey identifies one warp's dispatch stream within one kernel
// launch.
type CtrlWarpKey struct {
	Invocation int // kernel launch index (cuda launch callbacks)
	CTA        int // flat CTA index
	Warp       int // warp ID within the CTA
}

// CtrlProfiler counts, per warp per launch, the control-transfer site
// dispatches whose warp state qualifies for a corruption class — the
// control-state analog of InjProfiler. The counts define the discrete
// site space a campaign draws injection targets from, so profiling and
// injection runs stay aligned run-to-run.
type CtrlProfiler struct {
	mu         sync.Mutex
	class      CtrlClass
	invocation int
	counts     map[CtrlWarpKey]uint64
}

// NewCtrlProfiler profiles qualifying sites for one corruption class.
func NewCtrlProfiler(class CtrlClass) *CtrlProfiler {
	return &CtrlProfiler{class: class, invocation: -1, counts: map[CtrlWarpKey]uint64{}}
}

// SetInvocation records the current kernel launch index; wire it to
// cuda.LaunchCallbacks.PreLaunch.
func (p *CtrlProfiler) SetInvocation(idx int) {
	p.mu.Lock()
	p.invocation = idx
	p.mu.Unlock()
}

// Profile is the handler body: it bumps the warp's qualifying-site count
// once per dispatch.
func (p *CtrlProfiler) Profile(ctx *device.Warp, _ sassi.HandlerArgs) {
	w := ctx.Sim()
	if !p.class.qualifies(w) {
		return
	}
	p.mu.Lock()
	p.counts[CtrlWarpKey{Invocation: p.invocation, CTA: w.CTA.Index, Warp: w.IDinCTA}]++
	p.mu.Unlock()
}

// Total returns the qualifying-dispatch count across all warps and
// launches.
func (p *CtrlProfiler) Total() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t uint64
	for _, n := range p.counts {
		t += n
	}
	return t
}

// Pick maps a flat index in [0, Total) to a concrete injection target:
// the warp and the ordinal of the qualifying dispatch within that warp's
// stream. Warps are enumerated in (Invocation, CTA, Warp) order, which no
// interleaving of concurrent SMs can change.
func (p *CtrlProfiler) Pick(flat uint64) (CtrlWarpKey, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]CtrlWarpKey, 0, len(p.counts))
	for key := range p.counts {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b CtrlWarpKey) int {
		return cmp.Or(cmp.Compare(a.Invocation, b.Invocation), cmp.Compare(a.CTA, b.CTA), cmp.Compare(a.Warp, b.Warp))
	})
	for _, key := range keys {
		n := p.counts[key]
		if flat < n {
			return key, flat, true
		}
		flat -= n
	}
	return CtrlWarpKey{}, 0, false
}

// CtrlInjector corrupts warp control state at one chosen dynamic site:
// the Nth qualifying dispatch of one warp in one launch. Compose Inject
// before the CFI checker's Audit in a single handler so the corruption
// lands before the same site's audit.
type CtrlInjector struct {
	mu     sync.Mutex
	class  CtrlClass
	target CtrlWarpKey
	nth    uint64
	// frameSeed selects the stack entry, bitSeed the bit (or forged
	// value) — both folded from the campaign's per-run RNG.
	frameSeed, bitSeed uint64
	// kernelLen bounds forged return addresses to the instrumented
	// kernel's instruction count.
	kernelLen int

	invocation int
	armed      bool
	counts     map[CtrlWarpKey]uint64
	injected   bool
	desc       string
}

// NewCtrlInjector builds an injector for one campaign run.
func NewCtrlInjector(class CtrlClass, target CtrlWarpKey, nth uint64, frameSeed, bitSeed uint64, kernelLen int) *CtrlInjector {
	return &CtrlInjector{
		class: class, target: target, nth: nth,
		frameSeed: frameSeed, bitSeed: bitSeed, kernelLen: kernelLen,
		invocation: -1, counts: map[CtrlWarpKey]uint64{},
	}
}

// SetInvocation mirrors the profiler's launch tracking; arm/disarm by
// launch index is implicit (the target key carries the invocation).
func (j *CtrlInjector) SetInvocation(idx int) {
	j.mu.Lock()
	j.invocation = idx
	j.armed = idx == j.target.Invocation
	j.mu.Unlock()
}

// Injected reports whether the corruption fired, and what it did.
func (j *CtrlInjector) Injected() (bool, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.injected, j.desc
}

// Inject is the handler body; the corruption applies at the chosen
// dispatch, before any composed checker audits the warp.
func (j *CtrlInjector) Inject(ctx *device.Warp, _ sassi.HandlerArgs) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.armed || j.injected {
		return
	}
	w := ctx.Sim()
	if !j.class.qualifies(w) {
		return
	}
	key := CtrlWarpKey{Invocation: j.invocation, CTA: w.CTA.Index, Warp: w.IDinCTA}
	if key != j.target {
		return
	}
	if j.counts[key] != j.nth {
		j.counts[key]++
		return
	}
	j.counts[key]++
	j.corrupt(w)
}

func (j *CtrlInjector) corrupt(w *sim.Warp) {
	j.injected = true
	switch j.class {
	case CtrlRetBitFlip:
		i := int(j.frameSeed % uint64(w.CallDepth()))
		bit := uint(j.bitSeed % 10)
		old := w.ReturnAddr(i)
		w.SetReturnAddr(i, old^(1<<bit))
		j.desc = fmt.Sprintf("call-stack[%d] %#x -> %#x", i, old, old^(1<<bit))
	case CtrlDivPCBitFlip:
		i := int(j.frameSeed % uint64(w.DivDepth()))
		bit := uint(j.bitSeed % 10)
		old := w.DivFrameAt(i).PC
		w.SetDivFramePC(i, old^(1<<bit))
		j.desc = fmt.Sprintf("div-stack[%d].pc %#x -> %#x", i, old, old^(1<<bit))
	case CtrlDivMaskBitFlip:
		i := int(j.frameSeed % uint64(w.DivDepth()))
		bit := uint(j.bitSeed % 32)
		old := w.DivFrameAt(i).Mask
		w.SetDivFrameMask(i, old^(1<<bit))
		j.desc = fmt.Sprintf("div-stack[%d].mask %#x -> %#x", i, old, old^(1<<bit))
	case CtrlForgedCall:
		ret := 0
		if j.kernelLen > 0 {
			ret = int(j.bitSeed % uint64(j.kernelLen))
		}
		w.PushReturnAddr(ret)
		j.desc = fmt.Sprintf("forged call frame -> %#x", ret)
	}
}
