package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// The specification of Local, independent of how it stores anything: a
// zero-filled byte array of Size bytes, every access bounds-checked as a
// whole against [0, Size), a failed access changing nothing, and Reset
// giving back an all-zero memory of the new size. localModel is that
// array; driveLocal runs one operation stream against it and a Local and
// requires identical bytes and identical faults, field for field.

const localFaultWhy = "local access beyond per-thread allocation (stack overflow?)"

type localModel []byte

func (m localModel) fault(off uint64, n int, write bool) *Fault {
	if size := uint64(len(m)); off > size || uint64(n) > size-off {
		return &Fault{Space: SpaceLocal, Addr: LocalBase + off, Write: write, Why: localFaultWhy}
	}
	return nil
}

// opStream reads an operation stream byte by byte; an exhausted stream
// reads zeros, so every fuzz input is a valid (if short) stream.
type opStream struct {
	b []byte
	i int
}

func (s *opStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return v
}

// offset picks the next access offset. The zones are where an
// implementation that materialises part of the array can go wrong: the end
// of the allocation, the lowest offset written so far (the edge of
// whatever is materialised), power-of-two boundaries below it (where a
// rounded edge would sit), a stack growing down from it, anywhere at all,
// and offsets whose end wraps around 2^64 or 2^32.
func (s *opStream) offset(size, lowest int) uint64 {
	mode, k := s.next(), int(s.next())
	clamp := func(v int) uint64 {
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	switch mode % 7 {
	case 0:
		return clamp(size - 24 + k%40)
	case 1:
		return clamp(lowest - 24 + k%40)
	case 2:
		g := 64 << (k % 5)
		return clamp(lowest&^(g-1) - 8 + int(s.next())%16)
	case 3:
		return clamp(lowest - 4*(k%64))
	case 4:
		return uint64(k<<8|int(s.next())) % uint64(size+32)
	case 5:
		return ^uint64(0) - uint64(k%20)
	default:
		return 1<<32 + uint64(k) - 8
	}
}

func sameFault(t *testing.T, what string, got error, want *Fault) {
	t.Helper()
	if want == nil {
		if got != nil {
			t.Fatalf("%s: unexpected error %v", what, got)
		}
		return
	}
	f, ok := got.(*Fault)
	if !ok || *f != *want {
		t.Fatalf("%s: error = %#v, want %#v", what, got, want)
	}
}

func driveLocal(t *testing.T, size int, stream []byte) {
	t.Helper()
	s := &opStream{b: stream}
	l := NewLocal(size)
	model := make(localModel, size)
	lowest := size
	fill := byte(1)
	wrote := func(off uint64) {
		if int(off) < lowest {
			lowest = int(off)
		}
	}
	whole := func(what string) {
		t.Helper()
		if l.Size() != len(model) {
			t.Fatalf("%s: Size() = %d, want %d", what, l.Size(), len(model))
		}
		got := make([]byte, len(model))
		if err := l.Read(0, got); err != nil {
			t.Fatalf("%s: whole-memory read: %v", what, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("%s: memory differs from the model\n got %x\nwant %x", what, got, []byte(model))
		}
	}
	for s.i < len(s.b) {
		op := s.next() % 8
		off := s.offset(len(model), lowest)
		switch op {
		case 0, 1: // Read, widths 1-16
			n := 1 + int(s.next())%16
			got := bytes.Repeat([]byte{0xee}, n)
			want := bytes.Repeat([]byte{0xee}, n) // a failed read leaves buf alone
			f := model.fault(off, n, false)
			if f == nil {
				copy(want, model[off:])
			}
			sameFault(t, "Read", l.Read(off, got), f)
			if !bytes.Equal(got, want) {
				t.Fatalf("Read(%d, %d bytes) = %x, want %x", off, n, got, want)
			}
		case 2, 3: // Write, widths 1-16
			n := 1 + int(s.next())%16
			data := make([]byte, n)
			for i := range data {
				data[i] = fill
				fill = fill*7 + 3
			}
			f := model.fault(off, n, true)
			sameFault(t, "Write", l.Write(off, data), f)
			if f == nil {
				copy(model[off:], data)
				wrote(off)
			}
		case 4: // Read32
			f := model.fault(off, 4, false)
			got, err := l.Read32(off)
			sameFault(t, "Read32", err, f)
			want := uint32(0)
			if f == nil {
				want = binary.LittleEndian.Uint32(model[off:])
			}
			if got != want {
				t.Fatalf("Read32(%d) = %#x, want %#x", off, got, want)
			}
		case 5: // Write32
			v := uint32(fill) * 0x01030507
			fill = fill*7 + 3
			f := model.fault(off, 4, true)
			sameFault(t, "Write32", l.Write32(off, v), f)
			if f == nil {
				binary.LittleEndian.PutUint32(model[off:], v)
				wrote(off)
			}
		case 6: // Reset: what the next CTA carved from the same slab sees
			if s.next()%4 == 0 {
				size = int(off % 9000)
			}
			l.Reset(size)
			model = make(localModel, size)
			lowest = size
			whole("after Reset")
		default: // the difftest collector's whole-memory snapshot
			whole("snapshot")
		}
	}
	whole("at end")
}

// TestLocalMatchesModel runs seeded random operation streams over the sizes
// that matter: empty, smaller than any rounding granule, a power of two,
// and the default stack plus an instrumentation frame.
func TestLocalMatchesModel(t *testing.T) {
	for _, size := range []int{0, 1, 7, 100, 256, 4096, 4096 + 176} {
		for seed := int64(1); seed <= 40; seed++ {
			stream := make([]byte, 600)
			rand.New(rand.NewSource(seed*1000 + int64(size))).Read(stream)
			driveLocal(t, size, stream)
		}
	}
}

// TestLocalStackShape is the access pattern of injected code: a frame at
// the top of the stack, first written in its middle, then below and above,
// read back through both access widths, with everything under the frame
// still reading zero and the word under the allocation's end still faulting.
func TestLocalStackShape(t *testing.T) {
	const size, frame = 4096 + 176, 176
	l := NewLocal(size)
	sp := uint64(size - frame)
	for _, slot := range []uint64{0x18, 0x1c, 0x10, 0x14, 0x00, 0x58, 0x70, frame - 4} {
		if err := l.Write32(sp+slot, uint32(0xabc00000+slot)); err != nil {
			t.Fatal(err)
		}
	}
	for _, slot := range []uint64{0x18, 0x1c, 0x10, 0x14, 0x00, 0x58, 0x70, frame - 4} {
		if v, err := l.Read32(sp + slot); err != nil || v != uint32(0xabc00000+slot) {
			t.Errorf("slot %#x = %#x, %v", slot, v, err)
		}
	}
	below := make([]byte, 64)
	if err := l.Read(sp-60, below); err != nil {
		t.Fatal(err)
	}
	if want := append(make([]byte, 60), 0x00, 0x00, 0xc0, 0xab); !bytes.Equal(below, want) {
		t.Errorf("read across the frame's lower edge = %x, want %x", below, want)
	}
	if v, err := l.Read32(0); err != nil || v != 0 {
		t.Errorf("bottom of an untouched stack = %#x, %v", v, err)
	}
	sameFault(t, "overflow", l.Write32(size-3, 1),
		&Fault{Space: SpaceLocal, Addr: LocalBase + size - 3, Write: true, Why: localFaultWhy})
}

// FuzzLocal feeds arbitrary operation streams to driveLocal; the first two
// bytes choose the size.
func FuzzLocal(f *testing.F) {
	f.Add([]byte{0x10, 0xb0})
	f.Add([]byte{0x10, 0xb0, 5, 3, 7, 4, 1, 30, 2, 1, 12, 15, 0, 2, 9, 3, 6, 0, 0, 1, 4, 1, 2})
	f.Add([]byte{0x00, 0x07, 2, 0, 20, 15, 2, 5, 0, 3, 5, 6, 1, 0, 0, 1, 22, 7})
	f.Add([]byte{0x01, 0x00, 3, 2, 1, 9, 0, 5, 2, 4, 3, 4, 6, 1, 1, 7, 7, 7, 3, 3, 60, 2})
	f.Fuzz(func(t *testing.T, stream []byte) {
		s := &opStream{b: stream}
		size := (int(s.next())<<8 | int(s.next())) % 9000
		driveLocal(t, size, stream[min(2, len(stream)):])
	})
}
