package pcsamp

import (
	"compress/gzip"
	"io"

	"sassi/internal/sass"
)

// pprof profile.proto export. The message set is small and stable
// (github.com/google/pprof/proto/profile.proto), so the encoder below
// writes the wire format directly — varint and length-delimited fields
// only — instead of pulling in a protobuf dependency. IDs and the string
// table are assigned in sorted-location order, and no timestamps are
// recorded, so the serialized bytes are deterministic (the golden test
// pins them).

// pbuf is a minimal proto3 wire-format writer.
type pbuf struct{ b []byte }

func (p *pbuf) uvarint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) key(field, wire int) { p.uvarint(uint64(field)<<3 | uint64(wire)) }

// varint emits a varint-typed field, skipping proto3 zero defaults.
func (p *pbuf) varint(field int, v uint64) {
	if v == 0 {
		return
	}
	p.key(field, 0)
	p.uvarint(v)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.key(field, 2)
	p.uvarint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// packed emits a packed repeated varint field.
func (p *pbuf) packed(field int, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	var sub pbuf
	for _, v := range vs {
		sub.uvarint(v)
	}
	p.bytes(field, sub.b)
}

// strtab interns strings; index 0 is "" as profile.proto requires.
type strtab struct {
	idx map[string]uint64
	tab []string
}

func newStrtab() *strtab {
	return &strtab{idx: map[string]uint64{"": 0}, tab: []string{""}}
}

func (s *strtab) id(v string) uint64 {
	if i, ok := s.idx[v]; ok {
		return i
	}
	i := uint64(len(s.tab))
	s.idx[v] = i
	s.tab = append(s.tab, v)
	return i
}

// valueType encodes a ValueType{type, unit} message.
func valueType(st *strtab, typ, unit string) []byte {
	var b pbuf
	b.varint(1, st.id(typ))
	b.varint(2, st.id(unit))
	return b.b
}

// proto serializes the profile as an uncompressed profile.proto message.
// Sample values are [samples, cycles] with cycles = samples*Period; the
// stall reason rides along as a "reason" string label on each sample.
func (p *Profile) proto() []byte {
	st := newStrtab()
	sym := newSymbolizer(p.kernels)

	type fnKey struct{ name, filename string }
	fnIDs := make(map[fnKey]uint64)
	var fnMsgs [][]byte
	function := func(name, filename string) uint64 {
		k := fnKey{name, filename}
		if id, ok := fnIDs[k]; ok {
			return id
		}
		id := uint64(len(fnMsgs) + 1)
		fnIDs[k] = id
		var b pbuf
		b.varint(1, id)              // id
		b.varint(2, st.id(name))     // name
		b.varint(3, st.id(name))     // system_name
		b.varint(4, st.id(filename)) // filename
		fnMsgs = append(fnMsgs, b.b)
		return id
	}

	type locKey struct {
		fn   uint64
		addr uint64
	}
	locIDs := make(map[locKey]uint64)
	var locMsgs [][]byte
	location := func(fn, addr uint64) uint64 {
		k := locKey{fn, addr}
		if id, ok := locIDs[k]; ok {
			return id
		}
		id := uint64(len(locMsgs) + 1)
		locIDs[k] = id
		var line pbuf
		line.varint(1, fn) // function_id
		var b pbuf
		b.varint(1, id)   // id
		b.varint(2, 1)    // mapping_id
		b.varint(3, addr) // address
		b.bytes(4, line.b)
		locMsgs = append(locMsgs, b.b)
		return id
	}

	var sampleMsgs [][]byte
	reasonKey := st.id("reason")
	for _, l := range p.sortedLocs() {
		frames := sym.frames(l)
		ids := make([]uint64, 0, len(frames))
		for i := len(frames) - 1; i >= 0; i-- { // pprof wants leaf first
			addr := uint64(0)
			if i == len(frames)-1 {
				addr = uint64(uint32(sass.InsOffset(int(l.PC))))
			}
			ids = append(ids, location(function(frames[i], l.Kernel), addr))
		}
		c := p.Locs[l]
		var label pbuf
		label.varint(1, reasonKey)
		label.varint(2, st.id(l.Reason.String()))
		var b pbuf
		b.packed(1, ids)
		b.packed(2, []uint64{c.Samples, c.Samples * p.Period})
		b.bytes(3, label.b)
		sampleMsgs = append(sampleMsgs, b.b)
	}

	var mapping pbuf
	mapping.varint(1, 1) // id
	mapping.varint(5, st.id("[sassi-sim]"))

	// Intern every remaining string before the table is emitted.
	sampleTypes := [][]byte{valueType(st, "samples", "count"), valueType(st, "cycles", "cycles")}
	periodType := valueType(st, "cycles", "cycles")
	defaultType := st.id("cycles")

	var out pbuf
	for _, m := range sampleTypes {
		out.bytes(1, m)
	}
	for _, m := range sampleMsgs {
		out.bytes(2, m)
	}
	out.bytes(3, mapping.b)
	for _, m := range locMsgs {
		out.bytes(4, m)
	}
	for _, m := range fnMsgs {
		out.bytes(5, m)
	}
	for _, s := range st.tab {
		out.bytes(6, []byte(s))
	}
	out.bytes(11, periodType)   // period_type
	out.varint(12, p.Period)    // period
	out.varint(14, defaultType) // default_sample_type
	return out.b
}

// WritePprof writes the gzipped profile.proto that `go tool pprof`
// conventionally consumes.
func (p *Profile) WritePprof(w io.Writer) error {
	gz := gzip.NewWriter(w)
	if _, err := gz.Write(p.proto()); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}
