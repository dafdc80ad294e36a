// Package device is the device-side runtime that SASSI instrumentation
// handlers are written against: the analog of writing handlers in CUDA.
//
// A handler runs once per JCAL dispatch, inline on the goroutine simulating
// the SM, and receives a Warp: the warp-synchronous view of every thread
// the handler's per-thread CUDA code would run on. The model has three
// parts.
//
//   - The running mask. It starts as the warp's active mask at the site.
//     A thread that would `return` early is removed with Return; nothing
//     else changes it.
//   - Lanes. First/Next walk the running lanes in ascending order, and
//     Lane(l) is lane l's accessor for everything per-thread: indices,
//     registers, the SASSI parameter objects on its stack, device memory
//     and atomics. A per-thread scalar of the CUDA source becomes a lane
//     vector (Vec32, Vec64) or a lane mask here.
//   - Collectives. Ballot, All, Any, Shfl and Shfl64 are pure functions of
//     the running mask and the per-lane values: which lanes take part is
//     exactly the mask the control flow above has maintained, so there is
//     nothing to wait for. A returned lane no longer votes (CUDA's rule
//     for __ballot), and All divides by the lanes still running.
//
// Figure 4 of the paper maps to Go like this:
//
//	bool dir = brp->GetDirection();        for l := w.First(); l >= 0; l = w.Next(l) {
//	                                           if args.CBP.Direction(l) { dir |= 1 << l }
//	                                       }
//	int active = __ballot(1);              active := w.Ballot(device.FullMask)
//	int taken = __ballot(dir == true);     taken := w.Ballot(dir)
//	int ntaken = __ballot(dir == false);   ntaken := w.Ballot(^dir)
//	if ((__ffs(active)-1) == threadIdxInWarp) {
//	    atomicAdd(&stats->total, 1); ...   c := w.Lane(device.Ffs(active) - 1)
//	}                                      c.AtomicAdd64(stats+..., 1)
//
// A simulated memory fault or any other panic in handler code unwinds the
// whole dispatch: lanes run in ascending order, so the first faulting lane
// aborts it, later lanes never run, and the launch fails with that lane's
// error (sassi.HandlerError).
package device

import (
	"math/bits"

	"sassi/internal/mem"
	"sassi/internal/sim"
)

// FullMask is the all-lanes predicate: Ballot(FullMask) is __ballot(1).
const FullMask = ^uint32(0)

// Vec32 and Vec64 hold one value per lane, indexed by lane number.
type (
	Vec32 [sim.WarpSize]uint32
	Vec64 [sim.WarpSize]uint64
)

// Warp is the view one handler dispatch executes with.
type Warp struct {
	dev     *sim.Device
	w       *sim.Warp
	active  uint32
	running uint32
	cur     int // lane of the latest Lane accessor, for fault attribution
}

// Bind points the view at one dispatch: sw's active lanes are running.
func (w *Warp) Bind(dev *sim.Device, sw *sim.Warp) {
	*w = Warp{dev: dev, w: sw, active: sw.ActiveMask(), running: sw.ActiveMask(), cur: -1}
}

// Sim returns the simulated warp. Handlers that audit or corrupt warp
// control state (CFI checking, control-state fault injection) use it to
// reach the call and divergence stacks.
func (w *Warp) Sim() *sim.Warp { return w.w }

// ActiveMask returns the warp's active mask at the instrumentation site.
func (w *Warp) ActiveMask() uint32 { return w.active }

// Running returns the lanes that have not returned from the handler.
func (w *Warp) Running() uint32 { return w.running }

// Return removes lane l from the running mask: the thread returned from
// the handler and takes no part in later collectives.
func (w *Warp) Return(l int) { w.running &^= 1 << uint(l) }

// First returns the lowest running lane, or -1 when none is left.
func (w *Warp) First() int { return Ffs(w.running) - 1 }

// Next returns the lowest running lane above l, or -1. Together with First
// it iterates the running lanes in ascending order; lanes may Return
// during the walk.
func (w *Warp) Next(l int) int { return Ffs(w.running&^(2<<uint(l)-1)) - 1 }

// CurLane returns the lane most recently handed out by Lane (-1 before the
// first): the best attribution for a panic that is not a memory fault.
func (w *Warp) CurLane() int { return w.cur }

// Ballot returns the mask of running lanes whose bit is set in pred (CUDA
// __ballot with each lane's predicate packed into pred).
func (w *Warp) Ballot(pred uint32) uint32 { return pred & w.running }

// All reports whether pred holds on every running lane (CUDA __all).
func (w *Warp) All(pred uint32) bool { return pred&w.running == w.running }

// Any reports whether pred holds on some running lane (CUDA __any).
func (w *Warp) Any(pred uint32) bool { return pred&w.running != 0 }

// Shfl returns, per lane, lane srcLane's element of v (CUDA __shfl). A
// source that is not running or out of range yields each lane's own value.
func (w *Warp) Shfl(v *Vec32, srcLane int) Vec32 {
	return shfl(w.running, (*[sim.WarpSize]uint32)(v), srcLane)
}

// Shfl64 is Shfl for 64-bit values (used to broadcast addresses).
func (w *Warp) Shfl64(v *Vec64, srcLane int) Vec64 {
	return shfl(w.running, (*[sim.WarpSize]uint64)(v), srcLane)
}

func shfl[T any](running uint32, v *[sim.WarpSize]T, srcLane int) [sim.WarpSize]T {
	out := *v
	if uint(srcLane) < sim.WarpSize && running&(1<<uint(srcLane)) != 0 {
		for m := running; m != 0; m &= m - 1 {
			out[bits.TrailingZeros32(m)] = v[srcLane]
		}
	}
	return out
}

// AtomicAnd32 is every running lane executing atomicAnd(addr, v[lane]).
// AND commutes, so the lanes' values are combined first and memory sees
// one read-modify-write — what the hardware's atomic unit does for a warp
// hitting one address. A fault is the lowest running lane's.
func (w *Warp) AtomicAnd32(addr uint64, v *Vec32) {
	if w.running == 0 {
		return
	}
	all := FullMask
	for m := w.running; m != 0; m &= m - 1 {
		all &= v[bits.TrailingZeros32(m)]
	}
	w.Lane(w.First()).AtomicAnd32(addr, all)
}

// Popc is CUDA __popc.
func Popc(x uint32) int { return bits.OnesCount32(x) }

// Ffs is CUDA __ffs: 1-based index of the least significant set bit, 0 if
// none.
func Ffs(x uint32) int {
	if x == 0 {
		return 0
	}
	return bits.TrailingZeros32(x) + 1
}

// Lane is one thread's accessor: what per-thread handler code reaches
// through threadIdx, pointers and registers in CUDA.
type Lane struct {
	w    *Warp
	t    *sim.Thread
	lane int
}

// Lane returns lane l's accessor. l must be one of the warp's active lanes.
func (w *Warp) Lane(l int) Lane {
	w.cur = l
	return Lane{w: w, t: w.w.Threads[l], lane: l}
}

// Index returns this thread's lane index within its warp (threadIdx & 31).
func (c Lane) Index() int { return c.lane }

// ThreadIdx returns the 3-D thread index within the CTA.
func (c Lane) ThreadIdx() (x, y, z uint32) { return c.t.TidX, c.t.TidY, c.t.TidZ }

// BlockIdx returns the 3-D CTA index within the grid.
func (c Lane) BlockIdx() (x, y, z uint32) { return c.t.CtaX, c.t.CtaY, c.t.CtaZ }

// FlatThreadIdx returns the flattened thread index within the CTA.
func (c Lane) FlatThreadIdx() uint32 { return c.t.FlatTid }

// GlobalThreadIdx returns a grid-unique flat thread id.
func (c Lane) GlobalThreadIdx() uint64 { return c.t.GlobalFlat }

// Device memory access. Addresses are generic simulated addresses; a fault
// panics with a Fault, which the dispatcher converts into the launch's
// error, matching the behavior of faulty handler code on hardware.

// Fault is the panic value a Lane accessor raises on a simulated memory
// fault.
type Fault struct {
	Lane int
	Err  error
}

func (c Lane) memPanic(err error) {
	if err != nil {
		panic(Fault{Lane: c.lane, Err: err})
	}
}

// ReadGlobal32 loads a 32-bit word from global memory.
func (c Lane) ReadGlobal32(addr uint64) uint32 {
	v, err := c.w.dev.Global.Read32(addr)
	c.memPanic(err)
	return v
}

// WriteGlobal32 stores a 32-bit word to global memory.
func (c Lane) WriteGlobal32(addr uint64, v uint32) {
	c.memPanic(c.w.dev.Global.Write32(addr, v))
}

// ReadGlobal64 loads a 64-bit word from global memory.
func (c Lane) ReadGlobal64(addr uint64) uint64 {
	v, err := c.w.dev.Global.Read64(addr)
	c.memPanic(err)
	return v
}

// WriteGlobal64 stores a 64-bit word to global memory.
func (c Lane) WriteGlobal64(addr uint64, v uint64) {
	c.memPanic(c.w.dev.Global.Write64(addr, v))
}

// AtomicAdd32 is CUDA atomicAdd on a 32-bit counter; returns the old value.
func (c Lane) AtomicAdd32(addr uint64, v uint32) uint32 {
	old, err := c.w.dev.Global.Atomic32(addr, func(o uint32) uint32 { return o + v })
	c.memPanic(err)
	return old
}

// AtomicAdd64 is CUDA atomicAdd on an unsigned long long counter.
func (c Lane) AtomicAdd64(addr uint64, v uint64) uint64 {
	old, err := c.w.dev.Global.Atomic64(addr, func(o uint64) uint64 { return o + v })
	c.memPanic(err)
	return old
}

// AtomicAnd32 is CUDA atomicAnd (the value-profiling handler's workhorse).
func (c Lane) AtomicAnd32(addr uint64, v uint32) uint32 {
	old, err := c.w.dev.Global.Atomic32(addr, func(o uint32) uint32 { return o & v })
	c.memPanic(err)
	return old
}

// AtomicOr32 is CUDA atomicOr.
func (c Lane) AtomicOr32(addr uint64, v uint32) uint32 {
	old, err := c.w.dev.Global.Atomic32(addr, func(o uint32) uint32 { return o | v })
	c.memPanic(err)
	return old
}

// AtomicMax32 is CUDA atomicMax (unsigned).
func (c Lane) AtomicMax32(addr uint64, v uint32) uint32 {
	old, err := c.w.dev.Global.Atomic32(addr, func(o uint32) uint32 { return max(o, v) })
	c.memPanic(err)
	return old
}

// AtomicCAS32 is CUDA atomicCAS.
func (c Lane) AtomicCAS32(addr uint64, compare, val uint32) uint32 {
	old, err := c.w.dev.Global.Atomic32(addr, func(o uint32) uint32 {
		if o == compare {
			return val
		}
		return o
	})
	c.memPanic(err)
	return old
}

// AtomicCAS64 is CUDA atomicCAS on 64-bit values.
func (c Lane) AtomicCAS64(addr uint64, compare, val uint64) uint64 {
	old, err := c.w.dev.Global.Atomic64(addr, func(o uint64) uint64 {
		if o == compare {
			return val
		}
		return o
	})
	c.memPanic(err)
	return old
}

// ReadGeneric32 loads through the generic address space: local and shared
// windows resolve against this thread/CTA (how handlers read the SASSI
// parameter objects the injected code placed on the stack).
func (c Lane) ReadGeneric32(addr uint64) uint32 {
	space, off := mem.Decode(addr)
	switch space {
	case mem.SpaceGlobal:
		return c.ReadGlobal32(addr)
	case mem.SpaceLocal:
		v, err := c.t.Local.Read32(off)
		c.memPanic(err)
		return v
	case mem.SpaceShared:
		v, err := c.w.w.CTA.Shared.Read32(off)
		c.memPanic(err)
		return v
	}
	c.memPanic(&mem.Fault{Space: mem.SpaceInvalid, Addr: addr, Why: "handler access to unmapped generic address"})
	return 0
}

// WriteGeneric32 stores through the generic address space.
func (c Lane) WriteGeneric32(addr uint64, v uint32) {
	space, off := mem.Decode(addr)
	switch space {
	case mem.SpaceGlobal:
		c.WriteGlobal32(addr, v)
	case mem.SpaceLocal:
		c.memPanic(c.t.Local.Write32(off, v))
	case mem.SpaceShared:
		c.memPanic(c.w.w.CTA.Shared.Write32(off, v))
	default:
		c.memPanic(&mem.Fault{Space: mem.SpaceInvalid, Addr: addr, Write: true, Why: "handler access to unmapped generic address"})
	}
}

// ReadGeneric64 loads a 64-bit value through the generic address space.
func (c Lane) ReadGeneric64(addr uint64) uint64 {
	lo := c.ReadGeneric32(addr)
	hi := c.ReadGeneric32(addr + 4)
	return uint64(lo) | uint64(hi)<<32
}

// Architectural state access (Case Studies III and IV).

// ReadReg returns the value of GPR r.
func (c Lane) ReadReg(r uint8) uint32 { return c.t.ReadReg(r) }

// WriteReg sets GPR r — handlers may mutate ISA-visible state (the
// error-injection capability CUDA-GDB-based approaches lacked).
func (c Lane) WriteReg(r uint8, v uint32) { c.t.WriteReg(r, v) }

// ReadPred returns predicate register p.
func (c Lane) ReadPred(p uint8) bool { return c.t.ReadPred(p) }

// WritePred sets predicate register p.
func (c Lane) WritePred(p uint8, v bool) { c.t.WritePred(p, v) }

// ReadCC returns the 4-bit condition code.
func (c Lane) ReadCC() uint8 { return c.t.CC }

// WriteCC sets the 4-bit condition code.
func (c Lane) WriteCC(v uint8) { c.t.CC = v & 0xf }
