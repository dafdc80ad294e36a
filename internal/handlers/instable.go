// Package handlers is the instrumentation-handler library: Go translations
// of the paper's four case-study CUDA handlers (conditional control flow,
// memory divergence, value profiling, error injection) plus the pedagogical
// instruction categorizer of Figure 3. Each profiler owns its device-
// resident state and decodes it host-side after the kernels finish.
package handlers

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/device"
)

// InsTable is a device-resident open-addressed hash table keyed by
// instruction address, the "find the instruction's counters in a hash
// table based on its address" structure every per-PC handler in the paper
// uses. Each entry holds a fixed number of 64-bit counter fields.
//
// Claiming an empty slot uses a three-state header word (empty ->
// initializing -> ready) so warps on concurrently simulated SMs cannot
// observe half-initialized counters.
type InsTable struct {
	ctx    *cuda.Context
	base   uint64
	slots  int
	fields int
	inits  []uint64
}

const (
	slotEmpty = 0
	slotInit  = 1
	slotReady = 2
)

// entry layout: status(4) key(4) fields*8
func (t *InsTable) entrySize() uint64 { return 8 + uint64(t.fields)*8 }

// NewInsTable allocates a table with the given slot count and per-entry
// counter fields, each initialized to the matching value of inits (or zero).
func NewInsTable(ctx *cuda.Context, name string, slots, fields int, inits []uint64) *InsTable {
	t := &InsTable{ctx: ctx, slots: slots, fields: fields}
	t.inits = make([]uint64, fields)
	copy(t.inits, inits)
	t.base = uint64(ctx.Malloc(uint64(slots) * t.entrySize()))
	zero := make([]byte, uint64(slots)*t.entrySize())
	if err := ctx.MemcpyHtoD(cuda.DevPtr(t.base), zero); err != nil {
		panic(fmt.Sprintf("handlers: init table %s: %v", name, err))
	}
	return t
}

func (t *InsTable) slotAddr(i int) uint64 { return t.base + uint64(i)*t.entrySize() }

// Find returns the device address of the counter fields for key, claiming
// and initializing a slot on first use. It is called from handler (device)
// code. A full table panics, surfacing as a handler fault.
func (t *InsTable) Find(c device.Lane, key int32) uint64 {
	h := int(uint32(key)*2654435761) % t.slots
	for probe := 0; probe < t.slots; probe++ {
		s := t.slotAddr((h + probe) % t.slots)
		for {
			// The status and key words are read together, as one 8-byte
			// word: a ready slot's key was written before its status.
			hdr := c.ReadGlobal64(s)
			status := uint32(hdr)
			if status == slotReady {
				if int32(hdr>>32) == key {
					return s + 8
				}
				break // occupied by another key; next probe
			}
			if status == slotInit {
				continue // another lane is initializing; spin
			}
			// Empty: try to claim.
			if c.AtomicCAS32(s, slotEmpty, slotInit) == slotEmpty {
				c.WriteGlobal32(s+4, uint32(key))
				for f := 0; f < t.fields; f++ {
					c.WriteGlobal64(s+8+uint64(f)*8, t.inits[f])
				}
				c.WriteGlobal32(s, slotReady)
				return s + 8
			}
		}
	}
	panic(fmt.Sprintf("handlers: instruction hash table full (%d slots)", t.slots))
}

// Entry is one decoded host-side table entry.
type Entry struct {
	Key    int32
	Fields []uint64
}

// ReadAll decodes the table host-side.
func (t *InsTable) ReadAll() ([]Entry, error) {
	buf := make([]byte, uint64(t.slots)*t.entrySize())
	if err := t.ctx.MemcpyDtoH(buf, cuda.DevPtr(t.base)); err != nil {
		return nil, err
	}
	var out []Entry
	es := int(t.entrySize())
	for i := 0; i < t.slots; i++ {
		b := buf[i*es:]
		if le32(b) != slotReady {
			continue
		}
		e := Entry{Key: int32(le32(b[4:])), Fields: make([]uint64, t.fields)}
		for f := 0; f < t.fields; f++ {
			e.Fields[f] = le64(b[8+f*8:])
		}
		out = append(out, e)
	}
	return out, nil
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}
