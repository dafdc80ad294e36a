package handlers

import (
	"sassi/internal/cuda"
	"sassi/internal/cupti"
	"sassi/internal/device"
	"sassi/internal/sassi"
)

// Opcount counter indices (the paper's Figure 3 dynamic_instr_counts).
const (
	OcMem     = iota
	OcMemWide // memory accesses wider than 4 bytes
	OcControl
	OcSync
	OcNumeric
	OcTexture
	OcTotal
	ocFields
)

// OpCounter is the pedagogical Figure 3 handler: categorize every dynamic
// instruction into overlapping classes with device-memory atomics, managed
// through a CUPTI counter bank (zeroed at launch, collected at exit).
type OpCounter struct {
	Bank *cupti.CounterBank
}

// NewOpCounter allocates the counter bank and its CUPTI plumbing.
func NewOpCounter(ctx *cuda.Context) *OpCounter {
	return &OpCounter{Bank: cupti.NewCounterBank(ctx, ocFields)}
}

// Options returns the instrumentation specification: before every
// instruction, passing memory info for the width check.
func (p *OpCounter) Options() sassi.Options {
	return sassi.Options{
		Where:         sassi.BeforeAll,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "sassi_before_handler",
	}
}

// Handler is the Figure 3 translation: every thread bumps the counter of
// each class its instruction belongs to.
func (p *OpCounter) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_before_handler",
		What: sassi.PassMemoryInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			// The instruction's classes are the same for the whole warp.
			bp := args.BP
			isMem, isWide := bp.IsMem(), args.MP != nil && args.MP.Width() > 4
			isControl, isSync := bp.IsControlXfer(), bp.IsSync()
			isNumeric, isTexture := bp.IsNumeric(), bp.IsTexture()
			for l := w.First(); l >= 0; l = w.Next(l) {
				c := w.Lane(l)
				if isMem {
					c.AtomicAdd64(p.Bank.Ptr(OcMem), 1)
					if isWide {
						c.AtomicAdd64(p.Bank.Ptr(OcMemWide), 1)
					}
				}
				if isControl {
					c.AtomicAdd64(p.Bank.Ptr(OcControl), 1)
				}
				if isSync {
					c.AtomicAdd64(p.Bank.Ptr(OcSync), 1)
				}
				if isNumeric {
					c.AtomicAdd64(p.Bank.Ptr(OcNumeric), 1)
				}
				if isTexture {
					c.AtomicAdd64(p.Bank.Ptr(OcTexture), 1)
				}
				c.AtomicAdd64(p.Bank.Ptr(OcTotal), 1)
			}
		},
	}
}

// Totals returns the accumulated class counts.
func (p *OpCounter) Totals() []uint64 { return p.Bank.Host }
