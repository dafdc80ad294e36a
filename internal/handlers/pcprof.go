package handlers

import (
	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/sassi"
)

// PCProfiler counts exact warp-level executions of every original
// instruction, keyed by SASSI instruction address. It is the
// ground-truth side of the PC-sampling accuracy experiment: the sampler
// estimates per-PC cycles statistically, this handler counts per-PC
// executions exactly, and the two must agree on where the time goes.
type PCProfiler struct {
	Table *InsTable
}

// NewPCProfiler allocates the device-side state. Slots bound the number of
// distinct static instructions across all kernels; 4096 covers every
// built-in workload with room to spare.
func NewPCProfiler(ctx *cuda.Context) *PCProfiler {
	return &PCProfiler{Table: NewInsTable(ctx, "sassi.pc_prof", 4096, 1, nil)}
}

// Options returns the instrumentation specification: before every original
// instruction, no extra argument marshalling.
func (p *PCProfiler) Options() sassi.Options {
	return sassi.Options{
		Where:         sassi.BeforeAll,
		What:          sassi.PassNone,
		BeforeHandler: "sassi_pcprof_handler",
	}
}

// Handler returns the registered handler. One table update per warp
// execution: the first active lane writes for the whole warp.
func (p *PCProfiler) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_pcprof_handler",
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			c := w.Lane(w.First())
			c.AtomicAdd64(p.Table.Find(c, args.BP.InsAddr()), 1)
		},
	}
}

// Counts decodes the table into each instruction's warp-level executions,
// keyed by SASSI instruction address (sassi.FnAddr(kernelIndex) + byte
// offset of the original instruction).
func (p *PCProfiler) Counts() (map[int32]uint64, error) {
	entries, err := p.Table.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make(map[int32]uint64, len(entries))
	for _, e := range entries {
		out[e.Key] = e.Fields[0]
	}
	return out, nil
}
