// Package uvm is the paper's §9.4 heterogeneous-instrumentation prototype:
// "we have already built a prototype to examine the sharing and CPU-GPU
// page migration behavior in a Unified Virtual Memory system by tracing the
// addresses touched by the CPU and GPU. A CPU-side handler processes and
// correlates the traces."
//
// The Manager models managed (cudaMallocManaged-style) allocations whose
// 4 KiB pages migrate on first touch: GPU touches are observed by a SASSI
// before-memory handler; CPU touches go through the Manager's host
// accessors. Both feed one unified event stream that the host-side
// correlator turns into migration and ping-pong statistics.
package uvm

import (
	"fmt"
	"math"
	"sort"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/mem"
	"sassi/internal/sassi"
)

// PageSize is the migration granularity.
const PageSize = 4096

// Side identifies a processor.
type Side uint8

// Processors.
const (
	CPU Side = iota
	GPU
)

func (s Side) String() string {
	if s == CPU {
		return "CPU"
	}
	return "GPU"
}

// Event is one touch of managed memory.
type Event struct {
	Who   Side
	Addr  uint64
	Write bool
}

// Manager tracks managed allocations and their page residency.
type Manager struct {
	ctx *cuda.Context

	ranges []managedRange
	pages  map[uint64]Side // page base -> current location
	lastMv map[uint64]Side // last migration direction (ping-pong detection)

	Events []Event
	// TraceEvents caps the recorded stream (0 = unlimited).
	TraceEvents int

	// Stats.
	H2D, D2H   uint64 // page migrations
	PingPongs  uint64 // migrations that immediately reverse a prior one
	GPUTouches uint64
	CPUTouches uint64
}

type managedRange struct{ base, size uint64 }

// NewManager creates a UVM manager over a context. Like the MemTracer, the
// manager observes a single ordered event stream (page migrations depend on
// touch order), so it pins the context's device to sequential SM execution.
func NewManager(ctx *cuda.Context) *Manager {
	ctx.Device().Cfg.SequentialSMs = true
	return &Manager{
		ctx:    ctx,
		pages:  make(map[uint64]Side),
		lastMv: make(map[uint64]Side),
	}
}

// AllocManaged allocates managed memory; pages start CPU-resident, as with
// first-touch cudaMallocManaged.
func (m *Manager) AllocManaged(size uint64, name string) cuda.DevPtr {
	p := m.ctx.Malloc(size, name)
	m.ranges = append(m.ranges, managedRange{base: uint64(p), size: size})
	for page := uint64(p) &^ (PageSize - 1); page < uint64(p)+size; page += PageSize {
		m.pages[page] = CPU
	}
	return p
}

// isManaged reports whether addr is inside a managed allocation.
func (m *Manager) isManaged(addr uint64) bool {
	for _, r := range m.ranges {
		if addr >= r.base && addr < r.base+r.size {
			return true
		}
	}
	return false
}

func (m *Manager) record(e Event) {
	if m.TraceEvents == 0 || len(m.Events) < m.TraceEvents {
		m.Events = append(m.Events, e)
	}
}

// touch moves the page if needed and updates statistics.
func (m *Manager) touch(addr uint64, who Side, write bool) {
	if !m.isManaged(addr) {
		return
	}
	if who == GPU {
		m.GPUTouches++
	} else {
		m.CPUTouches++
	}
	m.record(Event{Who: who, Addr: addr, Write: write})
	page := addr &^ (PageSize - 1)
	cur, ok := m.pages[page]
	if !ok {
		m.pages[page] = who
		return
	}
	if cur == who {
		return
	}
	// Migration.
	if who == GPU {
		m.H2D++
	} else {
		m.D2H++
	}
	if last, moved := m.lastMv[page]; moved && last != who {
		m.PingPongs++
	}
	m.lastMv[page] = who
	m.pages[page] = who
}

// Options returns the instrumentation spec for the GPU-side tracer.
func (m *Manager) Options() sassi.Options {
	return sassi.Options{
		Where:         sassi.BeforeMem,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "sassi_uvm_handler",
	}
}

// Handler returns the SASSI handler feeding GPU touches into the stream.
// Touches are recorded per warp access (one event per active lane).
func (m *Manager) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_uvm_handler",
		What: sassi.PassMemoryInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			isStore := args.MP.IsStore()
			for l := w.First(); l >= 0; l = w.Next(l) {
				if !args.BP.InstrWillExecute(l) {
					continue
				}
				if addr := args.MP.Address(l); mem.IsGlobal(addr) {
					m.touch(addr, GPU, isStore)
				}
			}
		},
	}
}

// Host accessors: the CPU side of the unified trace.

// HostReadF32 reads floats through the UVM layer, migrating pages CPU-ward.
func (m *Manager) HostReadF32(src cuda.DevPtr, count int) ([]float32, error) {
	for i := 0; i < count; i++ {
		m.touch(uint64(src)+uint64(4*i), CPU, false)
	}
	return m.ctx.ReadF32(src, count)
}

// HostWriteF32 writes floats through the UVM layer.
func (m *Manager) HostWriteF32(dst cuda.DevPtr, vals []float32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		putF32(buf[4*i:], v)
		m.touch(uint64(dst)+uint64(4*i), CPU, true)
	}
	return m.ctx.MemcpyHtoD(dst, buf)
}

// HostReadU32 reads words through the UVM layer.
func (m *Manager) HostReadU32(src cuda.DevPtr, count int) ([]uint32, error) {
	for i := 0; i < count; i++ {
		m.touch(uint64(src)+uint64(4*i), CPU, false)
	}
	return m.ctx.ReadU32(src, count)
}

// HostWriteU32 writes words through the UVM layer.
func (m *Manager) HostWriteU32(dst cuda.DevPtr, vals []uint32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		putU32(buf[4*i:], v)
		m.touch(uint64(dst)+uint64(4*i), CPU, true)
	}
	return m.ctx.MemcpyHtoD(dst, buf)
}

// Residency returns how many managed pages currently live on each side.
func (m *Manager) Residency() (cpu, gpu int) {
	for _, side := range m.pages {
		if side == CPU {
			cpu++
		} else {
			gpu++
		}
	}
	return
}

// SharedPages returns pages that both processors touched (the sharing set),
// sorted by address.
func (m *Manager) SharedPages() []uint64 {
	seen := map[uint64]uint8{}
	for _, e := range m.Events {
		page := e.Addr &^ (PageSize - 1)
		seen[page] |= 1 << e.Who
	}
	var out []uint64
	for page, mask := range seen {
		if mask == 3 {
			out = append(out, page)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Report renders the correlated statistics.
func (m *Manager) Report() string {
	cpu, gpu := m.Residency()
	return fmt.Sprintf(
		"uvm: %d CPU touches, %d GPU touches; migrations H2D=%d D2H=%d (ping-pong %d); residency CPU=%d GPU=%d pages; %d shared pages",
		m.CPUTouches, m.GPUTouches, m.H2D, m.D2H, m.PingPongs, cpu, gpu, len(m.SharedPages()))
}

// Little-endian encoders (local copies; the cuda package works in bytes).
func putF32(b []byte, v float32) {
	putU32(b, math.Float32bits(v))
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
