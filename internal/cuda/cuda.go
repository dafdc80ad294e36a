// Package cuda is the host-side runtime analog: contexts, device memory
// management, host<->device copies, and kernel launches against the
// simulator. Workload host drivers are written against this API the way
// the paper's benchmarks are written against the CUDA runtime.
package cuda

import (
	"encoding/binary"
	"fmt"
	"math"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

// DevPtr is a device (global) memory address.
type DevPtr uint64

// LaunchCallbacks observe kernel boundaries; the CUPTI layer subscribes
// through these hooks (the paper's §3.3 init/collect protocol).
type LaunchCallbacks struct {
	// PreLaunch runs before the kernel starts.
	PreLaunch func(kernel string, launchIdx int)
	// Twin runs after every PreLaunch and may return a second program and
	// the warps that run it (sim.LaunchParams.Twin); nil leaves the launch
	// as the workload issued it. One subscriber at most may answer a launch.
	Twin func(kernel string, launchIdx int) *sim.Twin
	// PostLaunch runs after the kernel completes (or fails).
	PostLaunch func(kernel string, launchIdx int, stats *sim.KernelStats, err error)
}

// Context owns a device and tracks launch statistics. Kernel launches are
// serialized, which (as the paper notes for cudaMemcpy-separated launches)
// keeps callback-managed counters race-free.
type Context struct {
	dev *sim.Device

	callbacks []LaunchCallbacks
	launches  int

	// Aggregate per-context statistics (nvprof analog).
	TotalKernelCycles       uint64
	TotalWarpInstrs         uint64
	TotalInjectedWarpInstrs uint64
	TotalHandlerCalls       uint64
	TotalScoreboardStalls   uint64
}

// NewContext creates a context on a fresh device.
func NewContext(cfg sim.Config) *Context {
	return &Context{dev: sim.NewDevice(cfg)}
}

// Reset returns the context and its device to what NewContext gives —
// no subscribers, no launches counted, empty device memory, cold caches,
// nothing attached to the device — keeping the memory the device has
// already allocated for itself (sim.Device.Reset). A campaign worker
// resets one context between runs instead of building one per run.
func (c *Context) Reset() error {
	if err := c.dev.Reset(); err != nil {
		return err
	}
	*c = Context{dev: c.dev}
	return nil
}

// Device exposes the underlying simulated GPU.
func (c *Context) Device() *sim.Device { return c.dev }

// Subscribe registers launch callbacks.
func (c *Context) Subscribe(cb LaunchCallbacks) { c.callbacks = append(c.callbacks, cb) }

// Malloc allocates n bytes of device memory.
func (c *Context) Malloc(n uint64) DevPtr {
	return DevPtr(c.dev.Alloc(n))
}

// MemcpyHtoD copies host bytes to the device.
func (c *Context) MemcpyHtoD(dst DevPtr, src []byte) error {
	return c.dev.Global.Write(uint64(dst), src)
}

// MemcpyDtoH copies device bytes to the host.
func (c *Context) MemcpyDtoH(dst []byte, src DevPtr) error {
	return c.dev.Global.Read(uint64(src), dst)
}

// Memset32 fills count 32-bit words with v.
func (c *Context) Memset32(dst DevPtr, v uint32, count int) error {
	buf := make([]byte, 4*count)
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	return c.MemcpyHtoD(dst, buf)
}

// AllocF32 uploads a float slice, returning its device pointer.
func (c *Context) AllocF32(name string, host []float32) DevPtr {
	p := c.Malloc(uint64(4 * len(host)))
	buf := make([]byte, 4*len(host))
	for i, f := range host {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	if err := c.MemcpyHtoD(p, buf); err != nil {
		panic(fmt.Sprintf("cuda: upload %s: %v", name, err))
	}
	return p
}

// AllocU32 uploads a uint32 slice.
func (c *Context) AllocU32(name string, host []uint32) DevPtr {
	p := c.Malloc(uint64(4 * len(host)))
	buf := make([]byte, 4*len(host))
	for i, v := range host {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	if err := c.MemcpyHtoD(p, buf); err != nil {
		panic(fmt.Sprintf("cuda: upload %s: %v", name, err))
	}
	return p
}

// ReadF32 downloads count floats from the device.
func (c *Context) ReadF32(src DevPtr, count int) ([]float32, error) {
	buf := make([]byte, 4*count)
	if err := c.MemcpyDtoH(buf, src); err != nil {
		return nil, err
	}
	out := make([]float32, count)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

// ReadU32 downloads count uint32s from the device.
func (c *Context) ReadU32(src DevPtr, count int) ([]uint32, error) {
	buf := make([]byte, 4*count)
	if err := c.MemcpyDtoH(buf, src); err != nil {
		return nil, err
	}
	out := make([]uint32, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return out, nil
}

// ReadU64 downloads count uint64s from the device.
func (c *Context) ReadU64(src DevPtr, count int) ([]uint64, error) {
	buf := make([]byte, 8*count)
	if err := c.MemcpyDtoH(buf, src); err != nil {
		return nil, err
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return out, nil
}

// LaunchKernel runs a kernel synchronously, firing launch callbacks.
func (c *Context) LaunchKernel(prog *sass.Program, kernel string, p sim.LaunchParams) (*sim.KernelStats, error) {
	idx := c.launches
	c.launches++
	for _, cb := range c.callbacks {
		if cb.PreLaunch != nil {
			cb.PreLaunch(kernel, idx)
		}
	}
	for _, cb := range c.callbacks {
		if cb.Twin == nil {
			continue
		}
		if t := cb.Twin(kernel, idx); t != nil {
			if p.Twin != nil {
				return nil, fmt.Errorf("cuda: launch %d of %s: two twin programs selected", idx, kernel)
			}
			p.Twin = t
		}
	}
	stats, err := c.dev.Launch(prog, kernel, p)
	if stats != nil {
		c.TotalKernelCycles += stats.Cycles
		c.TotalWarpInstrs += stats.WarpInstrs
		c.TotalInjectedWarpInstrs += stats.InjectedWarpInstrs
		c.TotalHandlerCalls += stats.HandlerCalls
		c.TotalScoreboardStalls += stats.ScoreboardStalls
	}
	for _, cb := range c.callbacks {
		if cb.PostLaunch != nil {
			cb.PostLaunch(kernel, idx, stats, err)
		}
	}
	return stats, err
}

// Launches returns the number of kernel launches so far.
func (c *Context) Launches() int { return c.launches }
