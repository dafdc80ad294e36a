package mem

import (
	"encoding/binary"
	"testing"
)

func TestDecodeSpaces(t *testing.T) {
	cases := []struct {
		addr  uint64
		space Space
		off   uint64
	}{
		{0, SpaceInvalid, 0},
		{LocalBase, SpaceLocal, 0},
		{LocalBase + 100, SpaceLocal, 100},
		{LocalBase + WindowSize - 1, SpaceLocal, WindowSize - 1},
		{SharedBase, SpaceShared, 0},
		{SharedBase + 64, SpaceShared, 64},
		{SharedBase + WindowSize, SpaceInvalid, 0},
		{GlobalBase, SpaceGlobal, GlobalBase},
		{GlobalBase + 1000, SpaceGlobal, GlobalBase + 1000},
	}
	for _, c := range cases {
		sp, off := Decode(c.addr)
		if sp != c.space || off != c.off {
			t.Errorf("Decode(%#x) = %v,%#x; want %v,%#x", c.addr, sp, off, c.space, c.off)
		}
	}
}

func TestSpacePredicates(t *testing.T) {
	if !IsGlobal(GlobalBase) || IsGlobal(GlobalBase-1) {
		t.Error("IsGlobal boundary wrong")
	}
	if !IsLocal(LocalBase) || IsLocal(LocalBase+WindowSize) {
		t.Error("IsLocal boundary wrong")
	}
	if !IsShared(SharedBase) || IsShared(SharedBase-1) {
		t.Error("IsShared boundary wrong")
	}
}

func TestGlobalAllocAlignment(t *testing.T) {
	g := NewGlobal()
	a := g.Alloc(10)
	b := g.Alloc(1)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations misaligned: %#x %#x", a, b)
	}
	if b <= a {
		t.Error("allocations overlap")
	}
	if g.Footprint() != 11 {
		t.Errorf("footprint = %d", g.Footprint())
	}
}

func TestGlobalReadWriteRoundtrip(t *testing.T) {
	g := NewGlobal()
	base := g.Alloc(1<<17 + 64) // spans multiple 64K pages
	data := make([]byte, 1<<17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := g.Write(base+32, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := g.Read(base+32, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestGlobalStrictFaults(t *testing.T) {
	g := NewGlobal()
	base := g.Alloc(64)
	if err := g.Write32(base+60, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Write32(base+64, 1); err == nil {
		t.Error("write past allocation end accepted")
	}
	if _, err := g.Read32(base - 4); err == nil {
		t.Error("read before allocation accepted")
	}
	if _, err := g.Read32(GlobalBase - 100); err == nil {
		t.Error("read below heap accepted")
	}
	var f *Fault
	err := g.Write32(base+1000, 1)
	if ferr, ok := err.(*Fault); !ok {
		t.Errorf("error type %T, want *Fault", err)
	} else {
		f = ferr
	}
	if f != nil && (!f.Write || f.Space != SpaceGlobal) {
		t.Errorf("fault fields wrong: %+v", f)
	}
}

func TestGlobalLenientWindow(t *testing.T) {
	g := NewGlobal()
	base := g.Alloc(64)
	g.SetStrictBounds(false)
	// Between allocations but inside the heap window: allowed.
	if err := g.Write32(base+4096, 7); err != nil {
		t.Errorf("lenient in-window write rejected: %v", err)
	}
	if v, err := g.Read32(base + 4096); err != nil || v != 7 {
		t.Errorf("lenient readback = %v, %v", v, err)
	}
	// Reads of never-written pages return zero.
	if v, err := g.Read32(base + (1 << 20)); err != nil || v != 0 {
		t.Errorf("untouched page read = %v, %v", v, err)
	}
	// Outside the 4GiB window: fault.
	if err := g.Write32(GlobalBase+(5<<30), 1); err == nil {
		t.Error("write outside window accepted")
	}
	if _, err := g.Read32(GlobalBase - 8); err == nil {
		t.Error("read below base accepted in lenient mode")
	}
}

// TestGlobalReset: a reset memory is a new one to every reader — same
// addresses from the allocator, zeros where the last tenant wrote (in its
// heap and where a lenient stray store mapped a page), strict bounds — and
// keeps no page outside the heap it had.
func TestGlobalReset(t *testing.T) {
	g := NewGlobal()
	g.SetStrictBounds(false)
	base := g.Alloc(3 * pageSize)
	stray := base + 1<<30
	for _, addr := range []uint64{base, base + 2*pageSize + 8, stray} {
		if err := g.Write32(addr, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
	}
	g.Reset()
	if g.Footprint() != 0 {
		t.Errorf("footprint %d after Reset", g.Footprint())
	}
	if _, err := g.Read32(base); err == nil {
		t.Error("bounds still lenient, or the old allocation still mapped, after Reset")
	}
	if got := g.Alloc(3 * pageSize); got != base {
		t.Errorf("allocator restarts at %#x, want %#x", got, base)
	}
	g.SetStrictBounds(false)
	for _, addr := range []uint64{base, base + 2*pageSize + 8, stray} {
		if v, err := g.Read32(addr); err != nil || v != 0 {
			t.Errorf("read %#x at %#x after Reset (err %v), want 0", v, addr, err)
		}
	}
	if g.pages[stray>>pageShift] != nil {
		t.Error("a page outside the heap survived Reset")
	}
	if g.pages[base>>pageShift] == nil {
		t.Error("a heap page did not survive Reset")
	}
}

// globalAtomicCases are one-entry atomics on a word that holds init before:
// the value it holds after. They seed FuzzAtomicWarp.
var globalAtomicCases = []struct {
	op          AtomOp
	width       int
	off         uint64
	init, v     uint64
	swap, after uint64
}{
	{AtomAdd, 4, 0, 0, 5, 0, 5},
	{AtomOr, 8, 8, 0, 0xff00000000, 0, 0xff00000000},
	{AtomAdd, 4, 0, 0xffffffff, 2, 0, 1},
	{AtomMin, 4, 4, 5, 0xffffffff, 0, 0xffffffff},
	{AtomMinU, 4, 4, 5, 0xffffffff, 0, 5},
	{AtomMax, 8, 8, 1 << 63, 1, 0, 1},
	{AtomMaxU, 8, 8, 1 << 63, 1, 0, 1 << 63},
	{AtomCAS, 4, 0, 7, 7, 9, 9},
	{AtomCAS, 8, 8, 7, 6, 9, 7},
	{AtomExch, 4, 2, 3, 0xabcd, 0, 0xabcd},
}

func TestGlobalAtomics(t *testing.T) {
	for _, c := range globalAtomicCases {
		g := NewGlobal()
		base := g.Alloc(16)
		b := AtomicBatch{N: 1, Op: AtomExch, Width: c.width, Addrs: [32]uint64{base + c.off}, Vals: [32]uint64{c.init}}
		if _, err := g.AtomicWarp(&b); err != nil {
			t.Fatal(err)
		}
		b = AtomicBatch{N: 1, Op: c.op, Width: c.width, Addrs: [32]uint64{base + c.off},
			Vals: [32]uint64{c.v}, Swaps: [32]uint64{c.swap}}
		if n, err := g.AtomicWarp(&b); n != 1 || err != nil || b.Vals[0] != c.init {
			t.Errorf("op %d, %d bytes on %#x: applied %d, old %#x, %v", c.op, c.width, c.init, n, b.Vals[0], err)
		}
		buf := make([]byte, 8)
		if err := g.Read(base+c.off, buf[:c.width]); err != nil {
			t.Fatal(err)
		}
		if after := binary.LittleEndian.Uint64(buf); after != c.after {
			t.Errorf("op %d, %d bytes on %#x with %#x: word holds %#x, want %#x", c.op, c.width, c.init, c.v, after, c.after)
		}
	}
}

func TestGlobal64Roundtrip(t *testing.T) {
	g := NewGlobal()
	base := g.Alloc(8)
	if err := g.Write64(base, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, _ := g.Read64(base); v != 0x1122334455667788 {
		t.Errorf("got %#x", v)
	}
	if lo, _ := g.Read32(base); lo != 0x55667788 {
		t.Errorf("little-endian low word = %#x", lo)
	}
}

func TestSharedBounds(t *testing.T) {
	s := NewShared(128)
	if err := s.Write32(124, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Read32(124); v != 9 {
		t.Error("readback failed")
	}
	if err := s.Write32(126, 1); err == nil {
		t.Error("straddling write accepted")
	}
	if _, err := s.Read32(128); err == nil {
		t.Error("out-of-bounds read accepted")
	}
	if s.Size() != 128 {
		t.Errorf("size = %d", s.Size())
	}
}

func TestLocalBounds(t *testing.T) {
	l := NewLocal(256)
	if err := l.Write32(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Write32(256, 1); err == nil {
		t.Error("stack overflow write accepted")
	}
	buf := make([]byte, 32)
	if err := l.Read(240, buf); err == nil {
		t.Error("overlong read accepted")
	}
}
