package mem

import (
	"encoding/binary"
	"sync"
	"testing"
)

// TestGlobalConcurrentAtomics hammers one Global from many goroutines —
// atomic RMWs on shared counters, plain writes to disjoint slots, and reads
// that force lazy page materialization — then checks every count landed.
// Run under -race this doubles as the striped-lock correctness proof.
func TestGlobalConcurrentAtomics(t *testing.T) {
	g := NewGlobal()
	const (
		workers = 8
		iters   = 2000
	)
	// counters spread over several pages so multiple stripes are in play;
	// slots gives each worker private cells on shared pages.
	counters := g.Alloc(8 * 64 * 1024)
	slots := g.Alloc(4 * workers * iters)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Shared 64-bit counter, one per 4 KiB so the set spans pages.
				c := counters + uint64((i%128)*4096)
				if _, err := g.Atomic64(c, func(v uint64) uint64 { return v + 1 }); err != nil {
					t.Error(err)
					return
				}
				// Private slot write + read back.
				s := slots + uint64(4*(w*iters+i))
				if err := g.Write32(s, uint32(i)); err != nil {
					t.Error(err)
					return
				}
				if v, err := g.Read32(s); err != nil || v != uint32(i) {
					t.Errorf("slot readback: %d, %v", v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < 128; i++ {
		buf := make([]byte, 8)
		if err := g.Read(counters+uint64(i*4096), buf); err != nil {
			t.Fatal(err)
		}
		total += binary.LittleEndian.Uint64(buf)
	}
	if want := uint64(workers * iters); total != want {
		t.Fatalf("lost updates: counted %d, want %d", total, want)
	}
}

// TestGlobalConcurrentAtomicBatches interleaves, from many goroutines,
// warp-wide atomic batches over counters shared between them (each batch
// spans eight pages and adds twice to every counter it names), one-entry
// atomics, and AccessWarp stores to words each goroutine owns on the same
// pages. No update may be lost, two entries of one batch on one counter
// must see each other's add and nobody else's, and every owned word must
// hold its last store. Run under -race it is the batch path's locking proof.
func TestGlobalConcurrentAtomicBatches(t *testing.T) {
	g := NewGlobal()
	const workers, counters = 8, 128
	iters := 400
	if testing.Short() {
		iters = 100
	}
	base := g.Alloc(counters * 4096) // one counter per 4 KiB
	counter := func(i int) uint64 { return base + uint64(i%counters)*4096 }
	row := func(w int) uint64 { return counter(16*w) + 64 } // 32 owned words

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b AtomicBatch
			var addrs [32]uint64
			var data [32]uint32
			for i := 0; i < iters; i++ {
				b = AtomicBatch{N: 32, Op: AtomAdd, Width: 8}
				for l := 0; l < 32; l++ {
					b.Addrs[l], b.Vals[l] = counter(i+l/2*9), 1
				}
				if n, err := g.AtomicWarp(&b); n != 32 || err != nil {
					t.Errorf("batch applied %d of 32: %v", n, err)
					return
				}
				for l := 0; l < 32; l += 2 {
					if b.Vals[l+1] != b.Vals[l]+1 {
						t.Errorf("duplicate entries saw %d then %d", b.Vals[l], b.Vals[l+1])
						return
					}
				}
				one := AtomicBatch{N: 1, Op: AtomAdd, Width: 8, Addrs: [32]uint64{counter(i * 7)}, Vals: [32]uint64{1}}
				if _, err := g.AtomicWarp(&one); err != nil {
					t.Error(err)
					return
				}
				st := WarpOp{Exec: ^uint32(0), Store: true, Width: 4, Shape: ShapeAscending,
					Addrs: &addrs, Rows: [4]*[32]uint32{&data}}
				for l := 0; l < 32; l++ {
					addrs[l], data[l] = row(w)+uint64(4*l), uint32(i+l)
				}
				if _, err := g.AccessWarp(&st); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < counters; i++ {
		v, err := g.Read64(counter(i))
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if want := uint64(workers * iters * 33); total != want {
		t.Errorf("lost updates: counted %d, want %d", total, want)
	}
	for w := 0; w < workers; w++ {
		for l := 0; l < 32; l++ {
			if v, err := g.Read32(row(w) + uint64(4*l)); err != nil || v != uint32(iters-1+l) {
				t.Errorf("worker %d word %d = %d, %v; want %d", w, l, v, err, iters-1+l)
			}
		}
	}
}

// TestGlobalConcurrentCrossPage checks multi-page ranges (which take several
// stripe locks in ascending order) stay consistent under concurrency.
func TestGlobalConcurrentCrossPage(t *testing.T) {
	g := NewGlobal()
	const span = 256 // bytes written across a page boundary
	base := g.Alloc(pageSize * 4)
	// The range [edge, edge+span) straddles the first page boundary.
	edge := base + pageSize - span/2

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pat := make([]byte, span)
			for i := range pat {
				pat[i] = byte(w)
			}
			buf := make([]byte, span)
			for i := 0; i < 500; i++ {
				if err := g.Write(edge, pat); err != nil {
					t.Error(err)
					return
				}
				if err := g.Read(edge, buf); err != nil {
					t.Error(err)
					return
				}
				// Every byte of a read snapshot must come from a single
				// writer: cross-page writes must not tear.
				for j := 1; j < span; j++ {
					if buf[j] != buf[0] {
						t.Errorf("torn cross-page write: byte %d = %d, byte 0 = %d", j, buf[j], buf[0])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
