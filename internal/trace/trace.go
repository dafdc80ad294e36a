// Package trace implements the paper's §9.4 extension: SASSI-collected
// low-level event traces that drive separate tools. A MemTracer observes
// every coalesced global-memory transaction the simulator issues and
// records a compact trace; a downstream consumer (here, a standalone cache
// simulator) replays it — "a memory trace collected by SASSI can be used
// to drive a memory hierarchy simulator".
package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"sassi/internal/mem"
	"sassi/internal/sim"
)

// Event is one warp-level memory transaction set. SM and Warp identify the
// issuing streaming multiprocessor and launch-global warp, so the trace
// can be correlated with per-SM timelines (the obs tracer's lanes) and
// replayed per SM.
type Event struct {
	PC    int32
	SM    int32
	Warp  int32
	Store bool
	Lines []uint64
}

// MemTracer records coalesced global accesses from a device.
type MemTracer struct {
	Events []Event
}

// Attach hooks the tracer into a device's memory watch point.
func (t *MemTracer) Attach(dev *sim.Device) {
	dev.MemWatch = func(ev sim.MemAccess) {
		lines := append([]uint64(nil), ev.Res.Lines...)
		t.Events = append(t.Events, Event{
			PC: int32(ev.PC), SM: int32(ev.SM), Warp: int32(ev.Warp),
			Store: ev.Store, Lines: lines,
		})
	}
}

// Detach removes the hook.
func (t *MemTracer) Detach(dev *sim.Device) { dev.MemWatch = nil }

// Binary format magics. Version 2 adds per-event SM and Warp words so
// memory traces correlate with per-SM timelines; version 1 (no identity
// words) remains readable.
const (
	magicV1 = "SASSITR1"
	magicV2 = "SASSITR2"
)

// Write serializes the trace in the compact version-2 binary format:
// magic, event count, then per event PC(u32) flags(u32) SM(u32) Warp(u32)
// followed by the line addresses (u64 each). flags bit 0 is Store; the
// remaining bits carry the line count.
func (t *MemTracer) Write(w io.Writer) error {
	var hdr [8]byte
	copy(hdr[:], magicV2)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(t.Events)))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	for _, e := range t.Events {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.PC))
		flags := uint32(len(e.Lines)) << 1
		if e.Store {
			flags |= 1
		}
		binary.LittleEndian.PutUint32(buf[4:], flags)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.SM))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.Warp))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		for _, l := range e.Lines {
			binary.LittleEndian.PutUint64(buf[:], l)
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Read deserializes a trace written by Write: both the current version-2
// format and legacy version-1 traces (whose events decode with SM and Warp
// zero) are accepted. The counts a file claims size nothing up front: a
// truncated or hostile file costs what it holds, not what it says.
func Read(r io.Reader) (*MemTracer, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	var version int
	switch string(hdr[:]) {
	case magicV1:
		version = 1
	case magicV2:
		version = 2
	default:
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:])
	}
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(buf[:])
	t := &MemTracer{Events: make([]Event, 0, min(n, 1<<12))}
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		e := Event{PC: int32(binary.LittleEndian.Uint32(buf[:4]))}
		flags := binary.LittleEndian.Uint32(buf[4:])
		e.Store = flags&1 != 0
		count := int(flags >> 1)
		if version >= 2 {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, err
			}
			e.SM = int32(binary.LittleEndian.Uint32(buf[:4]))
			e.Warp = int32(binary.LittleEndian.Uint32(buf[4:]))
		}
		e.Lines = make([]uint64, 0, min(count, 2*32)) // at most two lines a lane
		for j := 0; j < count; j++ {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, err
			}
			e.Lines = append(e.Lines, binary.LittleEndian.Uint64(buf[:]))
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}

// CacheSimResult summarizes a trace replay through a standalone cache.
type CacheSimResult struct {
	Accesses uint64
	Hits     uint64
}

// HitRate returns hits/accesses.
func (r CacheSimResult) HitRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Accesses)
}

// ReplayCache drives a fresh cache model with the trace — the downstream
// "other simulator" of §9.4.
func ReplayCache(t *MemTracer, sizeBytes, lineBytes uint64, ways int) CacheSimResult {
	c := mem.NewCache(sizeBytes, lineBytes, ways)
	for _, e := range t.Events {
		for _, l := range e.Lines {
			c.Access(l, e.Store)
		}
	}
	return CacheSimResult{
		Accesses: c.Stats.Accesses,
		Hits:     c.Stats.Hits,
	}
}
