package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The models a warp's global access is checked against: AccessWarp, the
// coalescer and the cache as they were before a warp access moved register
// rows by address shape — every lane staged through a byte buffer, every
// lane validated and transferred, every lane's lines looked up in the whole
// list, and a cache of per-set slices.

// warpOpModel is the staged batch the model AccessWarp applies: N dense
// lanes, each with its address and up to 16 bytes of data.
type warpOpModel struct {
	N     int
	Store bool
	Width int
	Addrs [32]uint64
	Data  [32][16]byte
}

// accessWarpModel is the model of AccessWarp.
func (g *Global) accessWarpModel(op *warpOpModel) (int, error) {
	w := uint64(op.Width)
	n, held, cachedPN, cached, ferr := g.admitModel(op.Addrs[:op.N], w, op.Store)
	if n == 0 {
		return 0, ferr
	}
	for i := 0; i < n; i++ {
		a := op.Addrs[i]
		buf := op.Data[i][:op.Width]
		pn := a >> pageShift
		off := a & (pageSize - 1)
		if off+w > pageSize {
			if op.Store {
				g.writeData(a, buf)
			} else {
				g.readData(a, buf)
			}
			continue
		}
		if pn != cachedPN {
			cachedPN = pn
			if op.Store {
				cached = g.pageRW(pn)
			} else {
				cached = g.pageRO(pn)
			}
		}
		switch {
		case op.Store:
			copy(cached[off:], buf)
		case cached == nil:
			clear(buf)
		default:
			copy(buf, cached[off:off+w])
		}
	}
	held.unlock()
	return n, ferr
}

// admitModel is admit over a dense address list, its span found by a scan.
func (g *Global) admitModel(addrs []uint64, w uint64, write bool) (n int, held stripeLock, pn uint64, page *[pageSize]byte, err error) {
	pn = ^uint64(0)
	if len(addrs) == 0 {
		return 0, held, pn, nil, nil
	}
	lo, hi := span(addrs)
	n = len(addrs)
	g.mu.RLock()
	if g.findAlloc(lo, hi-lo+w) != nil {
		for i, a := range addrs {
			if ferr := g.findAlloc(a, w); ferr != nil {
				f := ferr.(*Fault)
				f.Write = write
				n, err = i, f
				break
			}
		}
	}
	if page = g.pages[lo>>pageShift]; page != nil {
		pn = lo >> pageShift
	}
	g.mu.RUnlock()
	if n == 0 {
		return 0, held, pn, nil, err
	}
	if n < len(addrs) {
		lo, hi = span(addrs[:n])
	}
	return n, g.lockRange(lo, hi-lo+w), pn, page, err
}

// span returns the lowest and highest of a non-empty set of addresses.
func span(addrs []uint64) (lo, hi uint64) {
	lo, hi = addrs[0], addrs[0]
	for _, a := range addrs[1:] {
		lo, hi = min(lo, a), max(hi, a)
	}
	return lo, hi
}

// Access is one warp memory instruction as the model coalescer takes it.
type Access struct {
	// Addrs holds the per-lane byte addresses; only lanes with the
	// corresponding Active bit set participate.
	Addrs [32]uint64
	// Active is the warp's active mask for the access.
	Active uint32
	// Width is the per-thread access width in bytes.
	Width int
	// Store marks the access as a write.
	Store bool
}

// Coalesce is CoalesceWarp into a fresh Result.
func (c *Coalescer) Coalesce(a *Access) Result {
	var res Result
	c.CoalesceWarp(&WarpOp{Exec: a.Active, Width: a.Width, Addrs: &a.Addrs}, &res)
	return res
}

// coalesceModel is the model of CoalesceWarp: every line of every lane
// looked up in the whole list emitted so far.
func (c *Coalescer) coalesceModel(a *Access, res *Result) {
	res.Lines = res.Lines[:0]
	res.NumActive = 0
	mask := c.LineBytes - 1
	for lane := 0; lane < 32; lane++ {
		if a.Active&(1<<lane) == 0 {
			continue
		}
		res.NumActive++
		first := a.Addrs[lane] &^ mask
		w := uint64(a.Width)
		if w == 0 {
			w = 4
		}
		last := (a.Addrs[lane] + w - 1) &^ mask
	lines:
		for line := first; ; line += c.LineBytes {
			for _, l := range res.Lines {
				if l == line {
					if line == last {
						break lines
					}
					continue lines
				}
			}
			res.Lines = append(res.Lines, line)
			if line == last {
				break
			}
		}
	}
}

// cacheModel is the model of Cache: per-set tag and age slices, every
// lookup a walk of its set.
type cacheModel struct {
	lineBytes uint64
	sets      int
	ways      int
	tags      [][]uint64
	lru       [][]uint8
	Stats     CacheStats
}

func newCacheModel(sizeBytes, lineBytes uint64, ways int) *cacheModel {
	sets := int(sizeBytes / (uint64(ways) * lineBytes))
	c := &cacheModel{lineBytes: lineBytes, sets: sets, ways: ways}
	c.tags = make([][]uint64, sets)
	c.lru = make([][]uint8, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.lru[i] = make([]uint8, ways)
	}
	c.invalidate()
	return c
}

func (c *cacheModel) touch(set, way int) {
	age := c.lru[set][way]
	for w := 0; w < c.ways; w++ {
		if c.lru[set][w] < age {
			c.lru[set][w]++
		}
	}
	c.lru[set][way] = 0
}

func (c *cacheModel) access(addr uint64, store bool) bool {
	c.Stats.Accesses++
	line := addr &^ (c.lineBytes - 1)
	set := int((addr / c.lineBytes) % uint64(c.sets))
	for w := 0; w < c.ways; w++ {
		if c.tags[set][w] == line {
			c.Stats.Hits++
			c.touch(set, w)
			return true
		}
	}
	c.Stats.Misses++
	if store {
		return false
	}
	victim := 0
	for w := 0; w < c.ways; w++ {
		if c.lru[set][w] == uint8(c.ways-1) {
			victim = w
			break
		}
	}
	if c.tags[set][victim] != ^uint64(0) {
		c.Stats.Evictions++
	}
	c.tags[set][victim] = line
	c.touch(set, victim)
	return false
}

func (c *cacheModel) invalidate() {
	for s := range c.tags {
		for w := range c.tags[s] {
			c.tags[s][w] = ^uint64(0)
			c.lru[s][w] = uint8(w)
		}
	}
}

// The warp fuzz memory: two pages, then a 256-byte and a 64-byte
// allocation, each adjacent to the one before — a contiguous warp can
// cross from one to the next without a fault. warpSites are where an
// access aims: page boundaries, the allocation boundaries, the end of the
// last one, a never-written page inside the lenient window, the window's
// edges, and below the heap.
const (
	warpA = GlobalBase
	warpB = GlobalBase + 2*pageSize
	warpC = warpB + 256
)

var warpSites = [...]uint64{
	warpA,
	warpA + pageSize - 8,
	warpB - 64,
	warpB + 192,
	warpC - 8,
	warpC + 32,
	GlobalBase + 1<<30,
	GlobalBase + 4<<30 - 64,
	GlobalBase + 5<<30,
	GlobalBase - 8,
}

// warpAccess picks the next warp access: a width, an exec mask, and lane
// addresses laid out one way — one address for every lane, one lane, a
// contiguous row, ascending with gaps, descending, one site per lane, or a
// contiguous row with one lane sent to a site that may fault.
func (s *opStream) warpAccess(addrs *[32]uint64) (width int, exec uint32) {
	width = 1 << (s.next() % 5)
	exec = s.exec()
	site := warpSites[int(s.next())%len(warpSites)] + uint64(s.next()%16)
	w := uint64(width)
	mode := s.next() % 7
	stride := w + uint64(s.next()%3)*w*uint64(s.next()%8)
	bad := int(s.next() % 32)
	for l := range addrs {
		ul := uint64(l)
		switch mode {
		case 0:
			addrs[l] = site
		case 1:
			addrs[l] = site
			exec &= -exec
		case 2, 6:
			addrs[l] = site + ul*w
		case 3:
			addrs[l] = site + ul*stride
		case 4:
			addrs[l] = site + (31-ul)*w
		default:
			addrs[l] = warpSites[int(s.next())%len(warpSites)] + uint64(s.next()%16)
		}
	}
	if mode == 6 {
		addrs[bad] = warpSites[int(s.next())%len(warpSites)] + uint64(s.next()%16)
	}
	return width, exec
}

// shapeOf classifies the lane addresses of exec as the engine does.
func shapeOf(addrs *[32]uint64, exec uint32) Shape {
	uniform, asc := true, true
	first := addrs[lane(exec)]
	prev := first
	for m := exec & (exec - 1); m != 0; m &= m - 1 {
		a := addrs[lane(m)]
		uniform = uniform && a == first
		asc = asc && a > prev
		prev = a
	}
	switch {
	case uniform:
		return ShapeUniform
	case asc:
		return ShapeAscending
	}
	return ShapeGeneral
}

// modelPack stages lane l's store data from register rows as the engine's
// storeFromRegs does: the low byte or half of the first row, else one
// little-endian word per row.
func modelPack(rows *[4][32]uint32, l int, b []byte) {
	switch len(b) {
	case 1:
		b[0] = byte(rows[0][l])
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(rows[0][l]))
	default:
		for r := range len(b) / 4 {
			binary.LittleEndian.PutUint32(b[4*r:], rows[r][l])
		}
	}
}

// modelRows is what the model's staged lane data leave in register rows:
// lane by lane, 1 and 2 bytes zero-extended into the first row.
func modelRows(op *warpOpModel, lanes []int, rows *[4][32]uint32) {
	for i, l := range lanes[:op.N] {
		b := op.Data[i][:]
		switch op.Width {
		case 1:
			rows[0][l] = uint32(b[0])
		case 2:
			rows[0][l] = uint32(binary.LittleEndian.Uint16(b))
		default:
			for r := range op.Width / 4 {
				rows[r][l] = binary.LittleEndian.Uint32(b[4*r:])
			}
		}
	}
}

// driveGlobalWarpAccess runs one stream of warp accesses, bounds-mode
// switches and cache flushes against AccessWarp, CoalesceWarp and Cache and
// against their models on a second memory with the same allocations. The
// applied lane count, the fault field for field, every register row, the
// bytes of memory and the pages that exist, the lines in first-touch order
// and NumActive, and each line's hit or miss in two caches and their final
// statistics must be identical. The shape handed to AccessWarp is the
// engine's classification, or at times a weaker one, which must not matter.
func driveGlobalWarpAccess(t *testing.T, stream []byte) {
	t.Helper()
	s := &opStream{b: stream}
	got, want := NewGlobal(), NewGlobal()
	for _, g := range []*Global{got, want} {
		g.Alloc(2 * pageSize)
		g.Alloc(256)
		g.Alloc(64)
	}
	caches := []*Cache{NewCache(1024, 128, 2), NewCache(4096, 128, 4)}
	models := []*cacheModel{newCacheModel(1024, 128, 2), newCacheModel(4096, 128, 4)}
	var addrs [32]uint64
	var gotRows, wantRows [4][32]uint32
	var gotRes, wantRes Result
	for s.i < len(s.b) {
		switch s.next() % 16 {
		case 0:
			strict := s.next()%2 == 0
			got.SetStrictBounds(strict)
			want.SetStrictBounds(strict)
			continue
		case 1:
			i := int(s.next() % 2)
			if s.next()%2 == 0 {
				caches[i].Invalidate()
			} else {
				caches[i].Reset()
				models[i].Stats = CacheStats{}
			}
			models[i].invalidate()
			continue
		}
		store := s.next()%2 == 0
		width, exec := s.warpAccess(&addrs)
		for r := range gotRows {
			for l := range gotRows[r] {
				gotRows[r][l] = uint32(s.next())<<8 | uint32(r*32+l)
			}
		}
		wantRows = gotRows
		opAddrs := addrs
		op := WarpOp{Exec: exec, Store: store, Width: width, Addrs: &opAddrs}
		for r := range op.Rows {
			op.Rows[r] = &gotRows[r]
		}
		if exec != 0 && s.next()%4 != 3 {
			op.Shape = shapeOf(&addrs, exec)
		}
		if op.Shape == ShapeUniform {
			// Only the lowest exec lane's address is read.
			for l := range opAddrs {
				if l != lane(exec) {
					opAddrs[l] = ^uint64(l)
				}
			}
		}
		what := fmt.Sprintf("store=%v width %d exec %#x shape %d at %#x", store, width, exec, op.Shape, addrs)

		model := warpOpModel{Store: store, Width: width}
		var lanes []int
		for m := exec; m != 0; m &= m - 1 {
			l := lane(m)
			model.Addrs[model.N] = addrs[l]
			if store {
				modelPack(&gotRows, l, model.Data[model.N][:width])
			}
			lanes = append(lanes, l)
			model.N++
		}
		wantN, wantErr := want.accessWarpModel(&model)
		if !store {
			model.N = wantN
			modelRows(&model, lanes, &wantRows)
		}
		gotN, gotErr := got.AccessWarp(&op)
		wantFault, _ := wantErr.(*Fault)
		sameFault(t, what, gotErr, wantFault)
		if gotN != wantN {
			t.Fatalf("%s: applied %d lanes, model %d", what, gotN, wantN)
		}
		if gotRows != wantRows {
			t.Fatalf("%s: rows %#x, model %#x", what, gotRows, wantRows)
		}

		c := NewCoalescer([]uint64{32, 128, 8}[s.next()%3])
		c.CoalesceWarp(&op, &gotRes)
		a := Access{Addrs: addrs, Active: exec, Width: width, Store: store}
		c.coalesceModel(&a, &wantRes)
		if !slices.Equal(gotRes.Lines, wantRes.Lines) || gotRes.NumActive != wantRes.NumActive {
			t.Fatalf("%s, %d-byte lines: %d lanes %#x, model %d lanes %#x", what, c.LineBytes,
				gotRes.NumActive, gotRes.Lines, wantRes.NumActive, wantRes.Lines)
		}
		if gotErr != nil {
			continue
		}
		for i, line := range gotRes.Lines {
			for k := range caches {
				if hit, wantHit := caches[k].Access(line, store), models[k].access(line, store); hit != wantHit {
					t.Fatalf("%s: line %d (%#x) in cache %d: hit %v, model %v", what, i, line, k, hit, wantHit)
				}
			}
		}
	}
	sameMemory(t, got, want)
	if gotPages, wantPages := pageNumbers(got), pageNumbers(want); !slices.Equal(gotPages, wantPages) {
		t.Fatalf("pages %#x, model %#x", gotPages, wantPages)
	}
	for k := range caches {
		if caches[k].Stats != models[k].Stats {
			t.Fatalf("cache %d: stats %+v, model %+v", k, caches[k].Stats, models[k].Stats)
		}
	}
}

// pageNumbers returns the numbers of the pages g has created, ascending.
func pageNumbers(g *Global) []uint64 {
	pns := make([]uint64, 0, len(g.pages))
	for pn := range g.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	return pns
}

// warpSeed encodes one access: a store or load of width 1<<wsel by the
// lanes of a full warp, laid out by mode from site.
func warpSeed(store bool, wsel, site, mode byte) []byte {
	st := byte(1)
	if store {
		st = 0
	}
	return append([]byte{2, st, wsel, 0, site, 0, mode, 1, 1, 7}, make([]byte, 128)...)
}

// FuzzGlobalWarpAccess checks AccessWarp, CoalesceWarp and Cache against
// their models over random widths, exec masks and address layouts —
// uniform, single-lane, contiguous, ascending with gaps, descending,
// scattered, a fault at one lane — straddling pages and adjacent
// allocations, in never-written pages and outside the heap, under strict
// and lenient bounds. Its seeds are each layout stored and loaded at each
// width from the first page, and random streams.
func FuzzGlobalWarpAccess(f *testing.F) {
	for mode := byte(0); mode < 7; mode++ {
		for wsel := byte(0); wsel < 5; wsel++ {
			f.Add(append(warpSeed(true, wsel, 0, mode), warpSeed(false, wsel, 0, mode)...))
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		stream := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(stream)
		f.Add(stream)
	}
	f.Fuzz(driveGlobalWarpAccess)
}

// TestAccessWarpShapes runs each layout at each width on a full warp, on
// lanes with holes and on a lone lane, from sites inside, across and
// outside the allocations, stored then loaded, against the models.
func TestAccessWarpShapes(t *testing.T) {
	for mode := byte(0); mode < 7; mode++ {
		for wsel := byte(0); wsel < 5; wsel++ {
			for site := byte(0); site < byte(len(warpSites)); site++ {
				for _, exec := range [][]byte{{0}, {2, 0x5a, 0x0f, 0xf0, 0x81}, {1, 17}} {
					var stream []byte
					for _, store := range []bool{true, false} {
						st := byte(1)
						if store {
							st = 0
						}
						stream = append(stream, 2, st, wsel)
						stream = append(stream, exec...)
						stream = append(stream, site, 3, mode, 1, 2, 9)
						stream = append(stream, make([]byte, 128)...)
					}
					driveGlobalWarpAccess(t, stream)
				}
			}
		}
	}
}
