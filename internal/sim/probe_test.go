package sim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
)

// probeRecorder is a sim.SiteProbe with fixed weights per kernel name that
// keeps every launch's report.
type probeRecorder struct {
	weights    map[string][]uint32
	counts     [][]uint64
	max        []uint64
	footprints []*sim.Footprint
}

func (p *probeRecorder) SiteWeights(k *sass.Kernel) []uint32 { return p.weights[k.Name] }

func (p *probeRecorder) LaunchSites(counts []uint64, maxWarpInstrs uint64) {
	p.counts = append(p.counts, counts)
	p.max = append(p.max, maxWarpInstrs)
}

func (p *probeRecorder) LaunchFootprint(f *sim.Footprint) { p.footprints = append(p.footprints, f) }

// siteInstr is one instruction of siteKernel with the weight of its site
// (0: not a site) and the label that names it, if any.
type siteInstr struct {
	in     sass.Instruction
	weight uint32
	label  string
}

// siteCode is a kernel that diverges, reconverges and runs a guarded site:
// a thread with tid >= 40 executes four sites; a thread below executes
// three, and the guarded IADD as a fourth when its tid is odd.
var siteCode = []siteInstr{
	{in: tid(0), weight: 3},
	{in: setp(0, sass.CmpLT, true, sass.R(0), sass.Imm(40)), weight: 1},
	{in: alu(sass.OpLOP, sass.Mods{Logic: sass.LogicAND}, 2, sass.R(0), sass.Imm(1)), weight: 2},
	{in: setp(1, sass.CmpNE, true, sass.R(2), sass.Imm(0))},
	{in: ssy("reconv")},
	{in: guarded(bra("else"), 0, false)},
	{in: movi(1, 1), weight: 2},
	{in: sync()},
	{in: guarded(alu(sass.OpIADD, sass.Mods{}, 1, sass.R(0), sass.Imm(1)), 1, false), weight: 5, label: "else"},
	{in: sync()},
	{in: sass.New(sass.OpNOP, nil, nil), label: "reconv"},
	{in: sass.New(sass.OpEXIT, nil, nil)},
}

// wantSites is siteCode's site count for thread tid of its CTA.
func wantSites(tid int) uint64 {
	if tid >= 40 || tid%2 == 1 {
		return 4
	}
	return 3
}

// siteKernel assembles siteCode, with each site followed by weight
// injected NOPs when padded: what an instrumentation pass with those
// weights would run.
func siteKernel(t *testing.T, padded bool) (*sass.Program, []uint32) {
	t.Helper()
	k := &sass.Kernel{Name: "sites", NumRegs: 16, Labels: map[string]int{}}
	var weights []uint32
	for _, s := range siteCode {
		if s.label != "" {
			k.Labels[s.label] = len(k.Instrs)
		}
		k.Instrs = append(k.Instrs, s.in.Clone())
		weights = append(weights, s.weight)
		for i := uint32(0); padded && i < s.weight; i++ {
			nop := sass.New(sass.OpNOP, nil, nil)
			nop.Injected = true
			k.Instrs = append(k.Instrs, nop)
		}
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	requireWellFormed(t, k)
	prog := sass.NewProgram()
	prog.AddKernel(k)
	return prog, weights
}

// siteLaunch is the geometry of the probe tests: more CTAs than the SMs
// hold at once, and a partial trailing warp in each.
var siteLaunch = sim.LaunchParams{Grid: sim.D1(11), Block: sim.D1(72)}

// TestSiteProbeCounts: on the execution core and on the reference loop, a
// site probe counts every thread's sites — guards and divergence
// included — and reports the largest warp instruction count of the same
// kernel with each site's injected instructions in place, which the padded
// kernel's MaxWarpInstrs states; attaching it changes no KernelStats.
func TestSiteProbeCounts(t *testing.T) {
	plain, weights := siteKernel(t, false)
	padded, _ := siteKernel(t, true)
	for _, ref := range []bool{false, true} {
		for _, seq := range []bool{false, true} {
			t.Run(fmt.Sprintf("reference=%v/sequential=%v", ref, seq), func(t *testing.T) {
				cfg := sim.MiniGPU()
				cfg.SequentialSMs = seq
				newDev := func() *sim.Device {
					if ref {
						return refDevice(cfg)
					}
					return sim.NewDevice(cfg)
				}
				bare, err := newDev().Launch(plain, "sites", siteLaunch)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := newDev().Launch(padded, "sites", siteLaunch)
				if err != nil {
					t.Fatal(err)
				}
				dev := newDev()
				probe := &probeRecorder{weights: map[string][]uint32{"sites": weights}}
				dev.Probe = probe
				stats, err := dev.Launch(plain, "sites", siteLaunch)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(stats, bare) {
					t.Errorf("KernelStats with the probe attached:\n%+v\nwithout:\n%+v", stats, bare)
				}
				if len(probe.counts) != 1 {
					t.Fatalf("%d reports for one launch", len(probe.counts))
				}
				threads := siteLaunch.Block.X
				want := make([]uint64, siteLaunch.Grid.X*threads)
				for i := range want {
					want[i] = wantSites(i % threads)
				}
				if !slices.Equal(probe.counts[0], want) {
					t.Errorf("site counts\n got %v\nwant %v", probe.counts[0], want)
				}
				if probe.max[0] != inst.MaxWarpInstrs || inst.MaxWarpInstrs <= bare.MaxWarpInstrs {
					t.Errorf("probed max %d, padded kernel's MaxWarpInstrs %d (unpadded %d)",
						probe.max[0], inst.MaxWarpInstrs, bare.MaxWarpInstrs)
				}
				if n := dev.LiveSlabs(); n != 0 {
					t.Errorf("%d slabs outstanding", n)
				}
			})
		}
	}
}

// TestSiteProbeRefusals: weights that do not cover the kernel fail the
// launch before it runs. (A launch with a Twin is refused too:
// TestTwinRefused.)
func TestSiteProbeRefusals(t *testing.T) {
	plain, weights := siteKernel(t, false)
	for name, w := range map[string][]uint32{"none": nil, "one short": weights[1:]} {
		dev := sim.NewDevice(sim.MiniGPU())
		probe := &probeRecorder{weights: map[string][]uint32{"sites": w}}
		dev.Probe = probe
		if _, err := dev.Launch(plain, "sites", siteLaunch); err == nil {
			t.Errorf("%s: the launch ran", name)
		}
		if n := dev.LiveSlabs(); n != 0 || len(probe.counts) != 0 {
			t.Errorf("%s: %d slabs outstanding, %d reports", name, n, len(probe.counts))
		}
	}
}
