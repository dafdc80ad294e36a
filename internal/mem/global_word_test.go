package mem

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// The model Read and Write are checked against: Global's data access as it
// was before it looked the first page up under the validating lock —
// validate under one metadata lock, then take every covering stripe and
// copy page by page, each page looked up under the metadata lock again.

// checkAlloc is findAlloc under the metadata read lock.
func (g *Global) checkAlloc(addr, n uint64) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.findAlloc(addr, n)
}

// modelRead is the model of Read.
func (g *Global) modelRead(addr uint64, buf []byte) error {
	if err := g.checkAlloc(addr, uint64(len(buf))); err != nil {
		f := err.(*Fault)
		f.Write = false
		return f
	}
	defer g.lockRange(addr, uint64(len(buf))).unlock()
	g.readData(addr, buf)
	return nil
}

// modelWrite is the model of Write.
func (g *Global) modelWrite(addr uint64, data []byte) error {
	if err := g.checkAlloc(addr, uint64(len(data))); err != nil {
		f := err.(*Fault)
		f.Write = true
		return f
	}
	defer g.lockRange(addr, uint64(len(data))).unlock()
	g.writeData(addr, data)
	return nil
}

// driveGlobalWord runs one stream of loads and stores and bounds-mode
// switches against Read32, Write32, Read64, Write64, Read and Write and, on
// a second memory with the same allocations, against the model's Read and
// Write of the same bytes. Values, faults field for field, the bytes of
// memory and which pages exist must be identical. Addresses come from the
// fuzz memory's sites (FuzzAtomicWarp has them): words straddling pages,
// the end of an allocation, the gap after it, never-written pages, the
// edges of the lenient window; Read and Write also take empty buffers and
// ones spanning up to three pages.
func driveGlobalWord(t *testing.T, stream []byte) {
	t.Helper()
	s := &opStream{b: stream}
	got, want := NewGlobal(), NewGlobal()
	for _, g := range []*Global{got, want} {
		g.Alloc(2*pageSize + 64)
		g.Alloc(64)
	}
	for s.i < len(s.b) {
		op := s.next() % 11
		if op == 8 {
			strict := s.next()%2 == 0
			got.SetStrictBounds(strict)
			want.SetStrictBounds(strict)
			continue
		}
		addr := atomicSites[int(s.next())%len(atomicSites)] + uint64(s.next()%16)
		if op >= 9 {
			n, fill := int(s.next())<<(s.next()%10), s.next()
			gotBuf, wantBuf := make([]byte, n), make([]byte, n)
			var gotErr, wantErr error
			if op == 9 {
				gotErr, wantErr = got.Read(addr, gotBuf), want.modelRead(addr, wantBuf)
			} else {
				for i := range gotBuf {
					gotBuf[i] = fill + byte(i)
				}
				copy(wantBuf, gotBuf)
				gotErr, wantErr = got.Write(addr, gotBuf), want.modelWrite(addr, wantBuf)
			}
			wantFault, _ := wantErr.(*Fault)
			sameFault(t, "Read/Write", gotErr, wantFault)
			if !slices.Equal(gotBuf, wantBuf) {
				t.Fatalf("op %d of %d bytes at %#x: buffers differ from the model's", op, n, addr)
			}
			continue
		}
		v := s.operand(8)
		var buf [8]byte
		var gotV, wantV uint64
		var gotErr, wantErr error
		switch op {
		case 0, 1:
			var w uint32
			w, gotErr = got.Read32(addr)
			gotV, wantErr = uint64(w), want.modelRead(addr, buf[:4])
			wantV = uint64(binary.LittleEndian.Uint32(buf[:]))
		case 2, 3:
			gotV, gotErr = got.Read64(addr)
			wantErr = want.modelRead(addr, buf[:])
			wantV = binary.LittleEndian.Uint64(buf[:])
		case 4, 5:
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			gotErr, wantErr = got.Write32(addr, uint32(v)), want.modelWrite(addr, buf[:4])
		default:
			binary.LittleEndian.PutUint64(buf[:], v)
			gotErr, wantErr = got.Write64(addr, v), want.modelWrite(addr, buf[:])
		}
		wantFault, _ := wantErr.(*Fault)
		sameFault(t, "word access", gotErr, wantFault)
		if wantErr != nil {
			wantV = 0 // a failed load returns 0
		}
		if gotV != wantV {
			t.Fatalf("op %d at %#x: loaded %#x, the model loads %#x", op, addr, gotV, wantV)
		}
	}
	sameMemory(t, got, want)
	gotPages, wantPages := keys(got.pages), keys(want.pages)
	if !slices.Equal(gotPages, wantPages) {
		t.Fatalf("pages %#x exist, with the model %#x", gotPages, wantPages)
	}
}

func keys(pages map[uint64]*[pageSize]byte) []uint64 {
	var ks []uint64
	for pn := range pages {
		ks = append(ks, pn)
	}
	slices.Sort(ks)
	return ks
}

// wordSeed encodes one word access at atomicSites[site]+off as a
// FuzzGlobalWord stream: op 0 Read32, 2 Read64, 4 Write32, 6 Write64.
func wordSeed(op, site, off byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{op, site, off, 3}, v)
}

// spanSeed encodes a Read (op 9) or Write (op 10) of n<<shift bytes at
// atomicSites[site]+off as a FuzzGlobalWord stream.
func spanSeed(op, site, off, n, shift byte) []byte {
	return []byte{op, site, off, n, shift, 0x5a}
}

// FuzzGlobalWord checks Global's data access, which validates and looks
// the first page up under one metadata lock, against the model that looks
// every page up again: the handler word accessors and Read and Write of
// any length. The seeds store and load words that straddle the first page
// boundary, load from the never-written page in the lenient window and
// from the gap between allocations in both bounds modes, copy empty
// buffers and ones spanning two and three pages, and random streams.
func FuzzGlobalWord(f *testing.F) {
	lenient := []byte{8, 1}
	for _, off := range []byte{0, 4, 6, 7, 8, 12} {
		f.Add(append(wordSeed(6, 1, off, 0x0102030405060708), wordSeed(2, 1, off, 0)...))
		f.Add(append(wordSeed(4, 1, off, 0x0a0b0c0d), wordSeed(0, 1, off, 0)...))
	}
	f.Add(slices.Concat(lenient, wordSeed(2, 7, 0, 0), wordSeed(4, 7, 4, 9), wordSeed(0, 7, 4, 0)))
	f.Add(slices.Concat(wordSeed(0, 4, 0, 0), lenient, wordSeed(0, 4, 0, 0), wordSeed(6, 4, 8, 1)))
	f.Add(slices.Concat(spanSeed(10, 1, 4, 0, 0), spanSeed(9, 7, 0, 0, 0), lenient, spanSeed(10, 7, 0, 0, 0)))
	f.Add(slices.Concat(spanSeed(10, 0, 8, 255, 9), spanSeed(9, 1, 0, 128, 2), spanSeed(9, 0, 0, 255, 9)))
	f.Add(slices.Concat(spanSeed(10, 1, 0, 129, 9), lenient, spanSeed(10, 1, 0, 129, 9), spanSeed(9, 1, 4, 129, 9)))
	for seed := int64(1); seed <= 12; seed++ {
		stream := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(stream)
		f.Add(stream)
	}
	f.Fuzz(driveGlobalWord)
}
