package handlers

import (
	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/mem"
	"sassi/internal/sassi"
)

// MemDivProfiler is Case Study II (§6): a handler before every memory
// operation that measures warp-level memory address divergence — how many
// unique cache lines each warp access touches — accumulating the paper's
// 32x32 occupancy-by-divergence matrix (Figure 8) from which the
// unique-line PMF (Figure 7) derives.
type MemDivProfiler struct {
	ctx        *cuda.Context
	matrix     cuda.DevPtr // 32*32 uint64 counters
	OffsetBits uint        // log2 of the line size (paper: 5, for 32B lines)
}

// NewMemDivProfiler allocates the device-side matrix.
func NewMemDivProfiler(ctx *cuda.Context) *MemDivProfiler {
	p := &MemDivProfiler{ctx: ctx, OffsetBits: 5}
	p.matrix = ctx.Malloc(32*32*8, "sassi.memdiv_matrix")
	zero := make([]byte, 32*32*8)
	_ = ctx.MemcpyHtoD(p.matrix, zero)
	return p
}

// Options returns the instrumentation specification for this profiler.
func (p *MemDivProfiler) Options() sassi.Options {
	return sassi.Options{
		Where:         sassi.BeforeMem,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "sassi_memdiv_handler",
	}
}

// Handler translates the paper's Figure 6: filter predicated-off threads,
// keep global accesses, then iteratively elect leaders and peel off all
// lanes matching the leader's line address until the warp's worth of
// addresses is accounted for.
func (p *MemDivProfiler) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_memdiv_handler",
		What: sassi.PassMemoryInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			var lineAddr device.Vec64
			for l := w.First(); l >= 0; l = w.Next(l) {
				if !args.BP.InstrWillExecute(l) {
					w.Return(l)
					continue
				}
				addr := args.MP.Address(l)
				// Only look at global memory requests; filter others out.
				if !mem.IsGlobal(addr) {
					w.Return(l)
					continue
				}
				lineAddr[l] = addr >> p.OffsetBits
			}

			workset := w.Ballot(device.FullMask)
			firstActive := device.Ffs(workset) - 1
			numActive := device.Popc(workset)
			unique := 0
			for workset != 0 {
				// Elect a leader, get its line, see who matches it.
				leader := device.Ffs(workset) - 1
				leadersAddr := w.Shfl64(&lineAddr, leader)
				var differs uint32
				for l := w.First(); l >= 0; l = w.Next(l) {
					if leadersAddr[l] != lineAddr[l] {
						differs |= 1 << uint(l)
					}
				}
				notMatches := w.Ballot(differs)
				workset &= notMatches
				unique++
			}

			// The first active thread tallies into the 32x32 matrix.
			if firstActive >= 0 {
				idx := uint64((numActive-1)*32 + (unique - 1))
				w.Lane(firstActive).AtomicAdd64(uint64(p.matrix)+idx*8, 1)
			}
		},
	}
}

// Matrix downloads the 32x32 occupancy/divergence counters.
func (p *MemDivProfiler) Matrix() (*mem.DivergenceMatrix, error) {
	vals, err := p.ctx.ReadU64(p.matrix, 32*32)
	if err != nil {
		return nil, err
	}
	var m mem.DivergenceMatrix
	for a := 0; a < 32; a++ {
		for u := 0; u < 32; u++ {
			m.Counts[a][u] = vals[a*32+u]
		}
	}
	return &m, nil
}

// Reset zeroes the matrix.
func (p *MemDivProfiler) Reset() error {
	zero := make([]byte, 32*32*8)
	return p.ctx.MemcpyHtoD(p.matrix, zero)
}
