package handlers

import (
	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/sassi"
)

// PC-profile field indices within the InsTable entry.
const (
	pcExec  = iota // warp-level executions
	pcLanes        // active threads summed over executions
	pcFields
)

// PCProfiler counts exact warp-level executions (and active-lane sums) of
// every original instruction, keyed by SASSI instruction address. It is the
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
	return &PCProfiler{Table: NewInsTable(ctx, "sassi.pc_prof", 4096, pcFields, nil)}
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
			active := device.Popc(w.ActiveMask())
			c := w.Lane(w.First())
			stats := p.Table.Find(c, args.BP.InsAddr())
			c.AtomicAdd64(stats+pcExec*8, 1)
			c.AtomicAdd64(stats+pcLanes*8, uint64(active))
		},
	}
}

// PCCount is one instruction's decoded counts.
type PCCount struct {
	Execs uint64 // warp-level executions
	Lanes uint64 // active threads summed over executions
}

// Counts decodes the table into a map keyed by SASSI instruction address
// (sassi.FnAddr(kernelIndex) + byte offset of the original instruction).
func (p *PCProfiler) Counts() (map[int32]PCCount, error) {
	entries, err := p.Table.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make(map[int32]PCCount, len(entries))
	for _, e := range entries {
		out[e.Key] = PCCount{Execs: e.Fields[pcExec], Lanes: e.Fields[pcLanes]}
	}
	return out, nil
}
