package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The per-entry atomics Global offered before they were batched per warp,
// kept as the model FuzzAtomicWarp checks AtomicWarp against: each entry
// validated, locked and applied on its own, with its meaning stated apart
// from AtomOp.Apply (modelApply32, modelApply64).

// Atomic32 applies f to the 32-bit word at addr atomically (the covering
// stripe lock spans the whole read-modify-write) and returns the old value.
func (g *Global) Atomic32(addr uint64, f func(old uint32) uint32) (uint32, error) {
	if err := g.checkAlloc(addr, 4); err != nil {
		fl := err.(*Fault)
		fl.Write = true
		return 0, fl
	}
	defer g.lockRange(addr, 4).unlock()
	var b [4]byte
	g.readData(addr, b[:])
	old := binary.LittleEndian.Uint32(b[:])
	binary.LittleEndian.PutUint32(b[:], f(old))
	g.writeData(addr, b[:])
	return old, nil
}

// Atomic64 applies f to the 64-bit word at addr atomically and returns the
// old value.
func (g *Global) Atomic64(addr uint64, f func(old uint64) uint64) (uint64, error) {
	if err := g.checkAlloc(addr, 8); err != nil {
		fl := err.(*Fault)
		fl.Write = true
		return 0, fl
	}
	defer g.lockRange(addr, 8).unlock()
	var b [8]byte
	g.readData(addr, b[:])
	old := binary.LittleEndian.Uint64(b[:])
	binary.LittleEndian.PutUint64(b[:], f(old))
	g.writeData(addr, b[:])
	return old, nil
}

func modelApply32(op AtomOp, old, v, swap uint32) uint32 {
	switch op {
	case AtomAdd:
		return old + v
	case AtomMin:
		if int32(v) < int32(old) {
			return v
		}
	case AtomMax:
		if int32(v) > int32(old) {
			return v
		}
	case AtomMinU:
		if v < old {
			return v
		}
	case AtomMaxU:
		if v > old {
			return v
		}
	case AtomAnd:
		return old & v
	case AtomOr:
		return old | v
	case AtomXor:
		return old ^ v
	case AtomExch:
		return v
	case AtomCAS:
		if old == v {
			return swap
		}
	}
	return old
}

func modelApply64(op AtomOp, old, v, swap uint64) uint64 {
	switch op {
	case AtomAdd:
		return old + v
	case AtomMin:
		if int64(v) < int64(old) {
			return v
		}
	case AtomMax:
		if int64(v) > int64(old) {
			return v
		}
	case AtomMinU:
		if v < old {
			return v
		}
	case AtomMaxU:
		if v > old {
			return v
		}
	case AtomAnd:
		return old & v
	case AtomOr:
		return old | v
	case AtomXor:
		return old ^ v
	case AtomExch:
		return v
	case AtomCAS:
		if old == v {
			return swap
		}
	}
	return old
}

// modelBatch applies b's entries one at a time through the model, up to the
// first fault: how many applied, their old values, and that fault.
func modelBatch(g *Global, b *AtomicBatch) (int, [32]uint64, error) {
	var olds [32]uint64
	for i := 0; i < b.N; i++ {
		a, v, swap := b.Addrs[i], b.Vals[i], b.Swaps[i]
		var err error
		if b.Width == 4 {
			var old uint32
			old, err = g.Atomic32(a, func(o uint32) uint32 { return modelApply32(b.Op, o, uint32(v), uint32(swap)) })
			olds[i] = uint64(old)
		} else {
			olds[i], err = g.Atomic64(a, func(o uint64) uint64 { return modelApply64(b.Op, o, v, swap) })
		}
		if err != nil {
			return i, olds, err
		}
	}
	return b.N, olds, nil
}

// The fuzz memory: a three-page allocation whose last page holds 64 bytes,
// and a 64-byte one after a gap. atomicSites are where a batch aims: page
// boundaries (an unaligned word there straddles them), the end of an
// allocation, the gap, a never-written page inside the lenient window, the
// window's edges, and below the heap.
const (
	fuzzBig   = GlobalBase
	fuzzSmall = GlobalBase + 2*pageSize + 256
)

var atomicSites = [...]uint64{
	fuzzBig,
	fuzzBig + pageSize - 8,
	fuzzBig + 2*pageSize - 8,
	fuzzBig + 2*pageSize + 56,
	fuzzBig + 2*pageSize + 128,
	fuzzSmall,
	fuzzSmall + 56,
	GlobalBase + 1<<30,
	GlobalBase + 4<<30 - 8,
	GlobalBase + 5<<30,
	GlobalBase - 8,
}

// operand picks an entry's operand: small, a sign-extended byte (so signed
// and unsigned MIN/MAX disagree), or any 64 bits.
func (s *opStream) operand(width int) uint64 {
	var v uint64
	switch s.next() % 4 {
	case 0:
		v = uint64(s.next() % 8)
	case 1, 2:
		v = uint64(int64(int8(s.next())))
	default:
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(s.next())
		}
	}
	if width == 4 {
		v = uint64(uint32(v)) // AtomicBatch's contract: 4-byte operands zero-extended
	}
	return v
}

// batch stages the next batch: an operation, a width, the lanes of an exec
// mask in ascending order, and their addresses — one for every lane (old
// values chain), consecutive words, a stride from one site (crossing
// pages), or a site per lane — each plus an offset of up to 15 bytes.
func (s *opStream) batch(b *AtomicBatch) {
	b.Op = AtomOp(s.next() % 10)
	b.Width = 4 << (s.next() % 2)
	exec := s.exec()
	mode := s.next() % 4
	site := atomicSites[int(s.next())%len(atomicSites)] + uint64(s.next()%16)
	stride := uint64(b.Width)
	if mode == 2 {
		stride = uint64(s.next()) * 64
	}
	b.N = 0
	for m := exec; m != 0; m &= m - 1 {
		l := uint64(bits.TrailingZeros32(m))
		switch mode {
		case 0:
			b.Addrs[b.N] = site
		case 1, 2:
			b.Addrs[b.N] = site + l*stride
		default:
			b.Addrs[b.N] = atomicSites[int(s.next())%len(atomicSites)] + uint64(s.next()%16)
		}
		b.Vals[b.N] = s.operand(b.Width)
		if b.Op == AtomCAS {
			b.Swaps[b.N] = s.operand(b.Width)
		}
		b.N++
	}
}

// sameMemory requires two Globals to hold the same bytes: every page either
// has, a never-written one reading as zeros.
func sameMemory(t *testing.T, got, want *Global) {
	t.Helper()
	var zero [pageSize]byte
	page := func(g *Global, pn uint64) []byte {
		if p := g.pages[pn]; p != nil {
			return p[:]
		}
		return zero[:]
	}
	for _, g := range []*Global{got, want} {
		for pn := range g.pages {
			if !bytes.Equal(page(got, pn), page(want, pn)) {
				t.Fatalf("page %#x differs from the model's", pn<<pageShift)
			}
		}
	}
}

// driveAtomicWarp runs one stream of batches and bounds-mode switches
// against AtomicWarp and against the model, entry by entry, and requires
// identical applied counts, old values, faults field for field, and memory.
func driveAtomicWarp(t *testing.T, stream []byte) {
	t.Helper()
	s := &opStream{b: stream}
	got, want := NewGlobal(), NewGlobal()
	for _, g := range []*Global{got, want} {
		g.Alloc(2*pageSize + 64)
		g.Alloc(64)
	}
	var b AtomicBatch
	for s.i < len(s.b) {
		if s.next()%8 == 0 {
			strict := s.next()%2 == 0
			got.SetStrictBounds(strict)
			want.SetStrictBounds(strict)
			continue
		}
		s.batch(&b)
		wantN, wantOld, wantErr := modelBatch(want, &b)
		gotN, gotErr := got.AtomicWarp(&b)
		wantFault, _ := wantErr.(*Fault)
		sameFault(t, "AtomicWarp", gotErr, wantFault)
		if gotN != wantN {
			t.Fatalf("%v width %d at %#x: applied %d entries, model %d", b.Op, b.Width, b.Addrs[:b.N], gotN, wantN)
		}
		if !slices.Equal(b.Vals[:gotN], wantOld[:wantN]) {
			t.Fatalf("%v width %d at %#x: old values %#x, model %#x", b.Op, b.Width, b.Addrs[:b.N], b.Vals[:gotN], wantOld[:wantN])
		}
	}
	sameMemory(t, got, want)
}

// atomicSeed encodes one batch of one entry, lane 0 at fuzzBig+off: what
// TestGlobalAtomics issues, as a FuzzAtomicWarp stream.
func atomicSeed(op AtomOp, width int, off, v, swap uint64) []byte {
	stream := []byte{1, byte(op), byte(width / 8), 1, 0, 0, 0, byte(off)}
	for i, x := range []uint64{v, swap} {
		if i == 0 || op == AtomCAS {
			stream = binary.BigEndian.AppendUint64(append(stream, 3), x)
		}
	}
	return stream
}

// FuzzAtomicWarp checks AtomicWarp against the per-entry model over random
// operations, widths, exec masks and addresses — duplicates within a batch,
// unaligned words straddling pages, never-written pages, entries outside
// any allocation or the heap, strict and lenient bounds. Its seeds are
// TestGlobalAtomics's cases, each after an EXCH that sets the word it
// starts from, and random streams.
func FuzzAtomicWarp(f *testing.F) {
	for _, c := range globalAtomicCases {
		f.Add(append(atomicSeed(AtomExch, c.width, c.off, c.init, 0), atomicSeed(c.op, c.width, c.off, c.v, c.swap)...))
	}
	for seed := int64(1); seed <= 12; seed++ {
		stream := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(stream)
		f.Add(stream)
	}
	f.Fuzz(driveAtomicWarp)
}

// BenchmarkAtomic compares AtomicWarp with the per-entry model, the path
// every global atomic took before batches: one entry (a handler's leader
// atomic) and 32 entries on consecutive counters (a warp's ATOM, or the
// site profiler's per-thread adds).
func BenchmarkAtomic(b *testing.B) {
	g := NewGlobal()
	base := g.Alloc(8 * 32)
	add := func(o uint64) uint64 { return o + 1 }
	for _, n := range []int{1, 32} {
		b.Run(fmt.Sprintf("batch/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := AtomicBatch{N: n, Op: AtomAdd, Width: 8}
				for j := 0; j < n; j++ {
					a.Addrs[j], a.Vals[j] = base+8*uint64(j), 1
				}
				if _, err := g.AtomicWarp(&a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("per-entry/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					if _, err := g.Atomic64(base+8*uint64(j), add); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
