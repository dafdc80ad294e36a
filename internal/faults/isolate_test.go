package faults

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/mem"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// Lines of a synthetic footprint, 32 bytes apart.
const (
	lineA = mem.GlobalBase + 32*iota
	lineB
	lineC
	lineD
	lineE
	lineF
	lineG
	lineH
	lineI
	lineJ
	lineK
	numLines
)

// syntheticFootprint is fourteen CTAs:
//   - 0 stores A, which 1 loads: each meets the other.
//   - 2 and 3 both load B and nothing else: loads alone never meet.
//   - 4 stores C and D, loads B: it meets no one.
//   - 5 issues a global atomic on E, which 6 loads.
//   - 7 and 8 both store F; 8 also stores G alone.
//   - 9 reduces H and I, 10 reduces H: reduction lines, which they meet
//     no one on.
//   - 11 reduces J, which 12 loads: a reduction there is a load and a
//     store, so each meets the other.
//   - 13 reduces K and loads it: it meets no one.
func syntheticFootprint() *sim.Footprint {
	return &sim.Footprint{
		LineBytes: 32,
		Loads: [][]uint64{nil, {lineA}, {lineB}, {lineB}, {lineB}, {lineE}, {lineE}, nil, nil,
			{lineB}, nil, nil, {lineJ}, {lineK}},
		Stores: [][]uint64{{lineA}, nil, nil, nil, {lineC, lineD}, {lineE}, nil, {lineF}, {lineF, lineG},
			nil, nil, nil, nil, nil},
		Reduces: [][]uint64{nil, nil, nil, nil, nil, nil, nil, nil, nil,
			{lineH, lineI}, {lineH}, {lineJ}, nil, {lineK}},
		Atomic: []bool{false, false, false, false, false, true, false, false, false,
			false, false, false, false, false},
		Deltas: [][]sim.Delta{nil, nil, nil, nil, nil, nil, nil, nil, nil,
			{{Addr: lineH, Sum: 3}, {Addr: lineH + 4, Sum: 1}, {Addr: lineI, Sum: 5}},
			{{Addr: lineH, Sum: 2}, {Addr: lineH + 28, Sum: 0xffffffff}},
			{{Addr: lineJ, Sum: 1}}, nil, {{Addr: lineK, Sum: 4}}},
	}
}

// TestLaunchCutLegality: a CTA is isolated exactly when it issued no
// global atomic but reductions, its stores meet no other CTA's loads or
// stores, its loads meet no other CTA's stores, and its reductions land on
// reduction lines or meet no one as a store would; a kernel that reads
// SR_SMID or SR_CLOCK isolates none.
func TestLaunchCutLegality(t *testing.T) {
	want := []bool{false, false, true, true, true, false, false, false, false, true, true, false, false, true}
	if got := newLaunchCut(syntheticFootprint(), false).alone; !slices.Equal(got, want) {
		t.Errorf("isolated CTAs %v, want %v", got, want)
	}
	if got := newLaunchCut(syntheticFootprint(), true).alone; slices.Contains(got, true) {
		t.Errorf("an SM-dependent kernel isolated %v", got)
	}
}

// TestLaunchCutFence: the fence of an isolated CTA refuses a load of a line
// another CTA stored, a store or a reduction to a line another CTA loaded
// or stored, and a load of or a store to a reduction line, and permits
// everything else: reductions to reduction lines, and any access to lines
// no CTA touched.
func TestLaunchCutFence(t *testing.T) {
	lc := newLaunchCut(syntheticFootprint(), false)
	load, store, reduce := sim.AccessLoad, sim.AccessStore, sim.AccessReduce
	for _, tc := range []struct {
		cta   int
		lines []uint64
		kind  sim.Access
		want  bool
	}{
		{4, []uint64{lineB}, load, true},             // others load it too
		{4, []uint64{lineC, lineD}, store, true},     // its own
		{4, []uint64{lineC}, load, true},             // its own
		{4, []uint64{numLines}, store, true},         // nobody's
		{4, []uint64{lineB}, store, false},           // others load it
		{4, []uint64{lineA}, load, false},            // CTA 0 stores it
		{4, []uint64{lineD, lineF}, load, false},     // CTAs 7 and 8 store F
		{4, []uint64{lineC, lineE}, store, false},    // CTA 5's atomic
		{4, []uint64{numLines, lineG}, store, false}, // CTA 8 stores G
		{4, []uint64{lineH, lineI}, reduce, true},    // reduction lines
		{4, []uint64{lineC, numLines}, reduce, true}, // its own, nobody's
		{4, []uint64{lineH}, load, false},            // a reduction line
		{4, []uint64{lineI}, store, false},           // a reduction line
		{4, []uint64{lineH, lineB}, reduce, false},   // others load B
		{4, []uint64{lineK}, reduce, false},          // CTA 13 loads K
		{9, []uint64{lineI}, reduce, true},           // reduced by 9 alone
		{9, []uint64{lineI}, load, false},            // still a reduction line
		{13, []uint64{lineK}, store, true},           // its own
		{13, []uint64{lineJ}, reduce, false},         // CTA 12 loads J
		{13, []uint64{lineK, lineH, numLines}, reduce, true},
	} {
		if got := lc.permits(tc.cta, tc.lines, tc.kind); got != tc.want {
			t.Errorf("CTA %d: %v of lines %x: permitted %v, want %v", tc.cta, tc.kind, tc.lines, got, tc.want)
		}
	}
}

// TestLaunchCutFindMatchesBinarySearch: the fence's constant-time line
// lookup answers as a binary search of the cut's sorted lines does, on
// random cuts whose lines spread over spans from a few lines to 2⁴⁰
// bytes, asked for every line of the cut, its neighbours, and random
// lines inside and outside the span; and its table holds fewer than four
// slots per line whatever the span.
func TestLaunchCutFindMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		lineBytes := uint64(32) << rng.Intn(3)
		spanLines := int64(1) << (rng.Intn(36) + 1)
		ctas := 1 + rng.Intn(16)
		f := &sim.Footprint{
			LineBytes: lineBytes,
			Loads:     make([][]uint64, ctas), Stores: make([][]uint64, ctas), Reduces: make([][]uint64, ctas),
			Atomic: make([]bool, ctas), Deltas: make([][]sim.Delta, ctas),
		}
		line := func() uint64 { return mem.GlobalBase + lineBytes*uint64(rng.Int63n(spanLines)) }
		for c := range ctas {
			for _, set := range []*[]uint64{&f.Loads[c], &f.Stores[c], &f.Reduces[c]} {
				for range rng.Intn(24) {
					*set = append(*set, line())
				}
				slices.Sort(*set)
				*set = slices.Compact(*set)
			}
		}
		lc := newLaunchCut(f, false)
		if len(lc.lines) > 0 && len(lc.slots) >= 4*len(lc.lines) {
			t.Errorf("trial %d: %d slots for %d lines", trial, len(lc.slots), len(lc.lines))
		}
		var queries []uint64
		for _, l := range lc.lines {
			queries = append(queries, l, l-lineBytes, l+lineBytes)
		}
		for range 64 {
			queries = append(queries, line(), line()+lineBytes*uint64(spanLines), mem.GlobalBase-lineBytes*uint64(1+rng.Intn(64)))
		}
		queries = append(queries, 0, ^uint64(0)&^(lineBytes-1))
		for _, q := range queries {
			i, ok := lc.find(q)
			j, want := slices.BinarySearch(lc.lines, q)
			if ok != want || ok && i != j {
				t.Fatalf("trial %d (%d lines over %d, %d-byte lines): line %#x found at %d, %v; binary search %d, %v",
					trial, len(lc.lines), spanLines, lineBytes, q, i, ok, j, want)
			}
		}
	}
}

// TestLaunchCutSplice: the splice after CTA c ran alone writes the golden
// bytes of every line another CTA stored, adjacent ones in one run, leaves
// c's own lines as c left them, and adds to each word of the reduction
// lines the golden deltas of every CTA but c to what c's own run added.
func TestLaunchCutSplice(t *testing.T) {
	lc := newLaunchCut(syntheticFootprint(), false)
	const size = numLines - lineA
	golden := mem.NewGlobal()
	golden.Alloc(size)
	for i := range size {
		_ = golden.Write(lineA+uint64(i), []byte{byte(i + 1)})
	}
	if err := lc.readImage(golden); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cta int
		// ran is what CTA cta left in the lines it stored or reduced,
		// over zeros; sums the reduction words' 32-bit values after the
		// splice.
		ran  map[uint64]uint32
		sums map[uint64]uint32
	}{
		{4, map[uint64]uint32{lineC: 0xeeeeeeee, lineD + 28: 0xeeeeeeee},
			map[uint64]uint32{lineH: 5, lineH + 4: 1, lineH + 28: 0xffffffff, lineI: 5}},
		// CTA 9's run added 7 to H's third word, where its golden run
		// added nothing, and nothing to I.
		{9, map[uint64]uint32{lineH: 3, lineH + 4: 1, lineH + 8: 7},
			map[uint64]uint32{lineH: 5, lineH + 4: 1, lineH + 8: 7, lineH + 28: 0xffffffff}},
		{10, map[uint64]uint32{lineH: 1, lineH + 28: 0xffffffff},
			map[uint64]uint32{lineH: 4, lineH + 4: 1, lineH + 28: 0xffffffff, lineI: 5}},
	} {
		run := mem.NewGlobal()
		run.Alloc(size)
		for a, v := range tc.ran {
			_ = run.Write32(a, v)
		}
		if err := lc.splice(run, tc.cta); err != nil {
			t.Fatal(err)
		}
		for l := uint64(lineA); l < numLines; l += 32 {
			got, want := make([]byte, 32), make([]byte, 32)
			_ = run.Read(l, got)
			switch use := lc.use[slices.Index(lc.lines, l)]; {
			case use.storer >= 0 && use.storer != int32(tc.cta) || use.storer == manyCTAs:
				_ = golden.Read(l, want)
			case use.reduced:
				for a, v := range tc.sums {
					if a-a%32 == l {
						binary.LittleEndian.PutUint32(want[a-l:], v)
					}
				}
			default:
				for a, v := range tc.ran {
					if a-a%32 == l {
						binary.LittleEndian.PutUint32(want[a-l:], v)
					}
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("CTA %d: line %#x holds %x, want %x", tc.cta, l, got, want)
			}
		}
	}
}

// TestSMDependent: a kernel reading SR_SMID or SR_CLOCK depends on what
// shares its CTA's SM; SR_CTAID and SR_NCTAID do not make it so.
func TestSMDependent(t *testing.T) {
	for sr, want := range map[sass.SpecialReg]bool{
		sass.SRSMID: true, sass.SRClock: true, sass.SRCtaidX: false, sass.SRNCtaidX: false,
	} {
		k := &sass.Kernel{Name: "k", Instrs: []sass.Instruction{
			sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sr)}),
			sass.New(sass.OpEXIT, nil, nil),
		}}
		if got := smDependent(k); got != want {
			t.Errorf("%v: smDependent %v, want %v", sr, got, want)
		}
	}
}

// TestGoldenIsolatesNoSMDependentKernel: a campaign whose kernel reads
// SR_SMID runs every injection run over the whole grid, though its CTAs
// share no global line.
func TestGoldenIsolatesNoSMDependentKernel(t *testing.T) {
	base, ok := workloads.Get("demo.vecadd")
	if !ok {
		t.Fatal("demo.vecadd not registered")
	}
	for _, smid := range []bool{false, true} {
		spec := *base
		if smid {
			// Unreachable, after the kernel's last EXIT, yet read.
			spec.PostCompile = func(prog *sass.Program) error {
				k := prog.Kernels[0]
				k.Instrs = append(k.Instrs,
					sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sass.SRSMID)}),
					sass.New(sass.OpEXIT, nil, nil))
				return nil
			}
		}
		c := &Campaign{Spec: &spec, Dataset: spec.DefaultDataset(), Config: sim.MiniGPU()}
		g, err := c.golden(sassi.NewCompileCache())
		if err != nil {
			t.Fatal(err)
		}
		if isolated := slices.Contains(g.cuts[0].alone, true); isolated == smid {
			t.Errorf("SR_SMID read %v: some CTA isolated %v", smid, isolated)
		}
	}
}

// TestFenceKeepsPointerCorruptingRuns: a run of Figure 10's campaigns (K10,
// seed 2015) whose fault corrupts a pointer, so that the target CTA loads
// a line another CTA of its SM stores. It is fenced and classifies as it
// does with no CTA isolated; run alone and spliced, it would not. (Widened
// to every warp it is an output-file-diff: instrumenting every warp moves
// the other CTA's store. Hotspot run 866 and pathfinder run 619 are
// fenced too, but they race a CTA on another SM, so their outcomes do not
// repeat under any mechanism.)
func TestFenceKeepsPointerCorruptingRuns(t *testing.T) {
	const app, run = "rodinia.hotspot", 193
	spec, ok := workloads.Get(app)
	if !ok {
		t.Fatalf("%s not registered", app)
	}
	c := &Campaign{Spec: spec, Dataset: spec.DefaultDataset(), Seed: 2015, Config: sim.KeplerK10()}
	c.setDefaults()
	g, err := c.golden(sassi.NewCompileCache())
	if err != nil {
		t.Fatal(err)
	}
	uncut := *g
	uncut.cuts = make([]*launchCut, len(g.cuts))
	for i, lc := range g.cuts {
		uncut.cuts[i] = &launchCut{alone: make([]bool, len(lc.alone))}
	}
	ctx := cuda.NewContext(c.injectionConfig(g))
	for _, tg := range []struct {
		g    *goldenRun
		path runPath
	}{{g, pathFenced}, {&uncut, pathWhole}} {
		o, path, err := c.injectRun(ctx, tg.g, run, false)
		if err != nil {
			t.Fatal(err)
		}
		if o != Masked || path != tg.path {
			t.Errorf("%s run %d: %s on the %s path, want masked on the %s path", app, run, o, path, tg.path)
		}
	}
}

// TestFenceKeepsRedirectedReductions: a run (K10, seed 1) whose fault makes
// the target CTA's reduction atomic land, beside its own bins, on a line
// of the sample coordinates that another CTA loads and none stores or
// reduces. The fence refuses the reduction before it touches memory, and
// the run classifies as the set widened to the whole grid does.
func TestFenceKeepsRedirectedReductions(t *testing.T) {
	const app, seed, run = "parboil.mri-gridding", 1, 227
	spec, ok := workloads.Get(app)
	if !ok {
		t.Fatalf("%s not registered", app)
	}
	c := &Campaign{Spec: spec, Dataset: spec.DefaultDataset(), Seed: seed, Config: sim.KeplerK10()}
	c.setDefaults()
	g, err := c.golden(sassi.NewCompileCache())
	if err != nil {
		t.Fatal(err)
	}
	site := c.selectSite(g.profiles, g.sites, newRNG(sass.SplitMix(c.Seed, run)))
	ctaThreads := g.profiles[site.Invocation].ctaThreads
	cta, warp := int(site.ThreadID)/ctaThreads, int(site.ThreadID)%ctaThreads/sim.WarpSize
	cut := g.cuts[site.Invocation]
	if !cut.alone[cta] {
		t.Fatalf("%s run %d: CTA %d is not isolated", app, run, cta)
	}
	// Only the target CTA runs, on one SM goroutine: refused is not shared.
	var refused []uint64
	fenced := func(kernel string, idx int) *sim.Twin {
		tw := cut.twinFor(g.inst, site.Invocation, cta, warp)(kernel, idx)
		if tw != nil {
			fence := tw.Fence
			tw.Fence = func(lines []uint64, kind sim.Access) bool {
				ok := fence(lines, kind)
				if !ok {
					refused = append(refused, lines...)
				}
				return ok
			}
		}
		return tw
	}
	ctx := cuda.NewContext(c.injectionConfig(g))
	_, err = c.injectOnce(ctx, g, site, nil, fenced, func(glob *mem.Global) error { return cut.splice(glob, cta) })
	var fe *sim.FenceError
	if !errors.As(err, &fe) || fe.Access != sim.AccessReduce || fe.CTA != cta {
		t.Fatalf("%s run %d: isolated attempt ended with %v, want a refused reduction", app, run, err)
	}
	loadOnly := false
	for _, l := range refused {
		if i, ok := slices.BinarySearch(cut.lines, l); ok {
			u := cut.use[i]
			loadOnly = loadOnly || u.loader != noCTA && u.loader != int32(cta) && u.storer == noCTA && !u.reduced
		}
	}
	if !loadOnly {
		t.Errorf("%s run %d: refused lines %x, none loaded by another CTA alone", app, run, refused)
	}
	o, path, err := c.injectRun(ctx, g, run, false)
	if err != nil {
		t.Fatal(err)
	}
	wide, _, err := c.injectRun(ctx, g, run, true)
	if err != nil {
		t.Fatal(err)
	}
	if path != pathFenced || o != wide {
		t.Errorf("%s run %d: %s on the %s path, want %s (the widened outcome) on the fenced path", app, run, o, path, wide)
	}
}

// footprintRecorder is a campaign's site probe that keeps every launch's
// footprint.
type footprintRecorder struct {
	*siteProbe
	footprints []*sim.Footprint
}

func (r *footprintRecorder) LaunchFootprint(f *sim.Footprint) { r.footprints = append(r.footprints, f) }

// TestAtomicWithResultIsNoReduction: parboil.bfs's frontier counter pos is
// an ATOM.ADD whose old value the kernel stores through, so it is no
// reduction: a CTA that issues it reduces nothing, is marked atomic, and
// stays on the whole-grid path.
func TestAtomicWithResultIsNoReduction(t *testing.T) {
	spec, ok := workloads.Get("parboil.bfs")
	if !ok {
		t.Fatal("parboil.bfs not registered")
	}
	cache := sassi.NewCompileCache()
	prog, err := spec.CompileCached(cache, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.CompileInstrumented(cache, ptxas.Options{}, (&handlers.Injector{}).Options())
	if err != nil {
		t.Fatal(err)
	}
	probe, err := newSiteProbe(prog, inst)
	if err != nil {
		t.Fatal(err)
	}
	rec := &footprintRecorder{siteProbe: probe}
	ctx := cuda.NewContext(sim.MiniGPU())
	ctx.Device().Probe = rec
	if _, err := spec.Run(ctx, prog, spec.DefaultDataset()); err != nil {
		t.Fatal(err)
	}
	atomics := 0
	for i, f := range rec.footprints {
		alone := newLaunchCut(f, false).alone
		for c := range f.Atomic {
			if len(f.Reduces[c]) != 0 || len(f.Deltas[c]) != 0 {
				t.Errorf("launch %d CTA %d: reduced %x, deltas %v", i, c, f.Reduces[c], f.Deltas[c])
			}
			if f.Atomic[c] {
				atomics++
				if alone[c] {
					t.Errorf("launch %d CTA %d: issued pos's atomic, yet isolated", i, c)
				}
			}
		}
	}
	if atomics == 0 {
		t.Error("no CTA issued pos's atomic")
	}
}
