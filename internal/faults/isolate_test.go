package faults

import (
	"bytes"
	"slices"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/mem"
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
)

// syntheticFootprint is nine CTAs:
//   - 0 stores A, which 1 loads: each meets the other.
//   - 2 and 3 both load B and nothing else: loads alone never meet.
//   - 4 stores C and D, loads B: it meets no one.
//   - 5 issues a global atomic on E, which 6 loads.
//   - 7 and 8 both store F; 8 also stores G alone.
func syntheticFootprint() *sim.Footprint {
	return &sim.Footprint{
		LineBytes: 32,
		Loads:     [][]uint64{nil, {lineA}, {lineB}, {lineB}, {lineB}, {lineE}, {lineE}, nil, nil},
		Stores:    [][]uint64{{lineA}, nil, nil, nil, {lineC, lineD}, {lineE}, nil, {lineF}, {lineF, lineG}},
		Atomic:    []bool{false, false, false, false, false, true, false, false, false},
	}
}

// TestLaunchCutLegality: a CTA is isolated exactly when it issued no
// global atomic, its stores meet no other CTA's loads or stores, and its
// loads meet no other CTA's stores; a kernel that reads SR_SMID or
// SR_CLOCK isolates none.
func TestLaunchCutLegality(t *testing.T) {
	want := []bool{false, false, true, true, true, false, false, false, false}
	if got := newLaunchCut(syntheticFootprint(), false).alone; !slices.Equal(got, want) {
		t.Errorf("isolated CTAs %v, want %v", got, want)
	}
	if got := newLaunchCut(syntheticFootprint(), true).alone; slices.Contains(got, true) {
		t.Errorf("an SM-dependent kernel isolated %v", got)
	}
}

// TestLaunchCutFence: the fence of an isolated CTA refuses a load of a line
// another CTA stored and a store to a line another CTA loaded or stored,
// and permits everything else, lines no CTA touched included.
func TestLaunchCutFence(t *testing.T) {
	lc := newLaunchCut(syntheticFootprint(), false)
	const c = 4
	for _, tc := range []struct {
		lines []uint64
		store bool
		want  bool
	}{
		{[]uint64{lineB}, false, true},             // others load it too
		{[]uint64{lineC, lineD}, true, true},       // its own
		{[]uint64{lineC}, false, true},             // its own
		{[]uint64{lineG + 32}, true, true},         // nobody's
		{[]uint64{lineB}, true, false},             // others load it
		{[]uint64{lineA}, false, false},            // CTA 0 stores it
		{[]uint64{lineD, lineF}, false, false},     // CTAs 7 and 8 store F
		{[]uint64{lineC, lineE}, true, false},      // CTA 5's atomic
		{[]uint64{lineG + 32, lineG}, true, false}, // CTA 8 stores G
	} {
		if got := lc.permits(c, tc.lines, tc.store); got != tc.want {
			t.Errorf("lines %x store=%v: permitted %v, want %v", tc.lines, tc.store, got, tc.want)
		}
	}
}

// TestLaunchCutSplice: the splice after CTA c ran alone writes the golden
// bytes of every line another CTA stored, adjacent ones in one run, and
// leaves c's own lines as c left them.
func TestLaunchCutSplice(t *testing.T) {
	lc := newLaunchCut(syntheticFootprint(), false)
	golden := mem.NewGlobal()
	golden.Alloc(7*32, "buf")
	for i := range 7 * 32 {
		_ = golden.Write(lineA+uint64(i), []byte{byte(i + 1)})
	}
	if err := lc.readImage(golden); err != nil {
		t.Fatal(err)
	}
	const c = 4
	run := mem.NewGlobal()
	run.Alloc(7*32, "buf")
	run.SetStrictBounds(false)
	mine := bytes.Repeat([]byte{0xee}, 64) // what c stored to C and D
	_ = run.Write(lineC, mine)
	if err := lc.splice(run, c); err != nil {
		t.Fatal(err)
	}
	for _, l := range []uint64{lineA, lineB, lineC, lineD, lineE, lineF, lineG} {
		got, want := make([]byte, 32), make([]byte, 32)
		_ = run.Read(l, got)
		switch l {
		case lineA, lineE, lineF, lineG: // stored by another CTA
			_ = golden.Read(l, want)
		case lineC, lineD:
			copy(want, mine)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("line %#x holds %x, want %x", l, got, want)
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
