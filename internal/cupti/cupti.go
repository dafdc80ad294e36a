// Package cupti is the analog of NVIDIA's CUDA Profiling Tools Interface:
// host-side code registers for callbacks at kernel launch and exit
// (cuda.Context.Subscribe) and uses them to initialize device-resident
// instrumentation counters before a kernel runs and to collect (and
// aggregate) them after it completes — the protocol of the paper's §3.3.
package cupti

import (
	"sassi/internal/cuda"
	"sassi/internal/sim"
)

// CounterBank manages a device-resident array of 64-bit instrumentation
// counters with the launch/exit init/collect protocol: zeroed on kernel
// launch, copied to the host and accumulated on kernel exit. This is the
// reusable pattern every case-study library in the paper builds on CUPTI.
type CounterBank struct {
	ptr   cuda.DevPtr
	count int

	// Host holds the accumulated totals across kernel launches.
	Host []uint64
}

// NewCounterBank allocates count device counters and subscribes to the
// context's kernel boundaries.
func NewCounterBank(ctx *cuda.Context, count int) *CounterBank {
	b := &CounterBank{
		count: count,
		ptr:   ctx.Malloc(uint64(8 * count)),
		Host:  make([]uint64, count),
	}
	zero := make([]byte, 8*count)
	_ = ctx.MemcpyHtoD(b.ptr, zero)
	ctx.Subscribe(cuda.LaunchCallbacks{
		PreLaunch: func(string, int) { _ = ctx.MemcpyHtoD(b.ptr, zero) },
		PostLaunch: func(string, int, *sim.KernelStats, error) {
			vals, err := ctx.ReadU64(b.ptr, count)
			if err != nil {
				return
			}
			for i, v := range vals {
				b.Host[i] += v
			}
		},
	})
	return b
}

// Ptr returns the device address of counter i (for handler AtomicAdd64).
func (b *CounterBank) Ptr(i int) uint64 { return uint64(b.ptr) + uint64(8*i) }

// Len returns the number of counters.
func (b *CounterBank) Len() int { return b.count }
