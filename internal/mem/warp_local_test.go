package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// The specification of WarpLocal is 32 Locals, one per lane, with a warp
// access applied lane by lane in ascending order and stopped by the first
// lane that faults. The simulator makes a warp access at one offset for
// every lane with StoreRow, StoreRow64 or LoadRow and any other lane by
// lane with Write
// or Read; the harness does the same, and sometimes takes the per-lane path
// for a uniform access too. driveWarpLocal runs one operation stream against a
// WarpLocal and 32 model Locals and requires identical bytes in every lane,
// identical loaded values and identical faults, field for field.

// exec picks the next warp's executing lanes: all of them, one, or any set.
func (s *opStream) exec() uint32 {
	switch s.next() % 4 {
	case 0:
		return ^uint32(0)
	case 1:
		return 1 << (s.next() % 32)
	}
	return uint32(s.next()) | uint32(s.next())<<8 | uint32(s.next())<<16 | uint32(s.next())<<24
}

// laneOffsets picks the per-lane offsets of a warp access: one offset for
// every lane (injected spills and fills), a stride from one base (an
// array indexed by lane, unaligned strides included), or one offset for
// every lane but one (a frame pointer with a flipped bit).
func (s *opStream) laneOffsets(size, lowest int) *[warpLanes]uint64 {
	var offs [warpLanes]uint64
	off := s.offset(size, lowest)
	for i := range offs {
		offs[i] = off
	}
	switch s.next() % 4 {
	case 2:
		stride := uint64(s.next() % 32)
		for i := range offs {
			offs[i] = off + uint64(i)*stride
		}
	case 3:
		offs[s.next()%warpLanes] = s.offset(size, lowest)
	}
	return &offs
}

// uniformOver reports the offset every lane of exec uses, when they agree:
// the case the simulator hands to StoreRow and LoadRow.
func uniformOver(exec uint32, offs *[warpLanes]uint64) (uint64, bool) {
	if exec == 0 {
		return 0, true
	}
	off := offs[bits.TrailingZeros32(exec)]
	for m := exec; m != 0; m &= m - 1 {
		if offs[bits.TrailingZeros32(m)] != off {
			return 0, false
		}
	}
	return off, true
}

func driveWarpLocal(t *testing.T, size int, stream []byte) {
	t.Helper()
	s := &opStream{b: stream}
	var wl WarpLocal
	wl.Reset(size)
	var models [warpLanes]*Local
	reset := func() {
		wl.Reset(size)
		for i := range models {
			models[i] = NewLocal(size)
		}
	}
	reset()
	lowest := size
	fill := byte(1)
	snapshot := func(what string) {
		t.Helper()
		if wl.Size() != size {
			t.Fatalf("%s: Size() = %d, want %d", what, wl.Size(), size)
		}
		got, want := make([]byte, size), make([]byte, size)
		for lane, m := range models {
			if err := wl.Read(lane, 0, got); err != nil {
				t.Fatalf("%s: lane %d whole-memory read: %v", what, lane, err)
			}
			_ = m.Read(0, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: lane %d differs from its model\n got %x\nwant %x", what, lane, got, want)
			}
		}
	}
	for s.i < len(s.b) {
		op := s.next() % 8
		exec := s.exec()
		offs := s.laneOffsets(size, lowest)
		n := []int{1, 2, 4, 8, 16}[s.next()%5]
		switch op {
		case 0, 1, 2: // store
			var data [warpLanes][16]byte
			var words, hiWords [warpLanes]uint32
			for lane := range data {
				for i := range data[lane] {
					data[lane][i] = fill
					fill = fill*7 + 3
				}
				words[lane] = binary.LittleEndian.Uint32(data[lane][:])
				hiWords[lane] = binary.LittleEndian.Uint32(data[lane][4:])
			}
			var want error
			for m := exec; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				if want = models[lane].Write(offs[lane], data[lane][:n]); want != nil {
					break
				}
				lowest = min(lowest, int(offs[lane]))
			}
			var got error
			if off, ok := uniformOver(exec, offs); (n == 4 || n == 8) && ok && s.next()%4 != 0 {
				if n == 4 {
					got = wl.StoreRow(exec, off, &words)
				} else {
					got = wl.StoreRow64(exec, off, &words, &hiWords)
				}
			} else {
				for m := exec; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					if got = wl.Write(lane, offs[lane], data[lane][:n]); got != nil {
						break
					}
				}
			}
			wantFault, _ := want.(*Fault)
			sameFault(t, "warp store", got, wantFault)
		case 3, 4, 5: // load
			var gotBuf, wantBuf [warpLanes][16]byte
			for lane := range gotBuf {
				for i := range gotBuf[lane] {
					gotBuf[lane][i], wantBuf[lane][i] = 0xee, 0xee
				}
			}
			var want error
			for m := exec; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				if want = models[lane].Read(offs[lane], wantBuf[lane][:n]); want != nil {
					break
				}
			}
			var got error
			if off, ok := uniformOver(exec, offs); n == 4 && ok && s.next()%4 != 0 {
				var dst [warpLanes]uint32
				for lane := range dst {
					dst[lane] = 0xeeeeeeee
				}
				got = wl.LoadRow(exec, off, &dst)
				for lane, v := range dst {
					gotBuf[lane][0], gotBuf[lane][1], gotBuf[lane][2], gotBuf[lane][3] =
						byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				}
			} else {
				for m := exec; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					if got = wl.Read(lane, offs[lane], gotBuf[lane][:n]); got != nil {
						break
					}
				}
			}
			wantFault, _ := want.(*Fault)
			sameFault(t, "warp load", got, wantFault)
			if gotBuf != wantBuf {
				t.Fatalf("warp load of %d bytes, exec %#x, offsets %v: got %x, want %x", n, exec, *offs, gotBuf, wantBuf)
			}
		case 6: // one lane's word, the handlers' access
			lane := int(s.next() % warpLanes)
			v := uint32(fill) * 0x01030507
			fill = fill*7 + 3
			want := models[lane].Write32(offs[lane], v)
			wantFault, _ := want.(*Fault)
			sameFault(t, "Write32", wl.Write32(lane, offs[lane], v), wantFault)
			if want == nil {
				lowest = min(lowest, int(offs[lane]))
			}
			gotV, got := wl.Read32(lane, offs[lane])
			wantV, want := models[lane].Read32(offs[lane])
			wantFault, _ = want.(*Fault)
			sameFault(t, "Read32", got, wantFault)
			if gotV != wantV {
				t.Fatalf("Read32(lane %d, %d) = %#x, want %#x", lane, offs[lane], gotV, wantV)
			}
		default:
			if s.next()%4 == 0 { // what the next CTA carved from the same slab sees
				if s.next()%4 == 0 {
					size = int(offs[0] % 9000)
				}
				reset()
				lowest = size
				snapshot("after Reset")
			} else { // the difftest collector's whole-memory snapshot
				snapshot("snapshot")
			}
		}
	}
	snapshot("at end")
}

// FuzzWarpLocal checks a warp's interleaved stack against 32 model Locals
// over random exec masks, per-lane offsets and widths 1/2/4/8/16, unaligned
// accesses, reads below the materialised suffix and offsets within 20 of
// 2^64; the first two bytes choose the size. Its seeds are
// TestLocalMatchesModel's streams over that test's sizes.
func FuzzWarpLocal(f *testing.F) {
	for _, size := range []int{0, 1, 7, 100, 256, 4096, 4096 + 176} {
		for seed := int64(1); seed <= 3; seed++ {
			stream := make([]byte, 600)
			rand.New(rand.NewSource(seed*1000 + int64(size))).Read(stream)
			f.Add(append([]byte{byte(size >> 8), byte(size)}, stream...))
		}
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		s := &opStream{b: stream}
		size := (int(s.next())<<8 | int(s.next())) % 9000
		driveWarpLocal(t, size, stream[min(2, len(stream)):])
	})
}
