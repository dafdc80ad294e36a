package difftest

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		a := Generate(seed, DefaultSize())
		b := Generate(seed, DefaultSize())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
	}
}

func TestGeneratedKernelsBuildAndCompile(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		p := Generate(SplitMix(1, seed), DefaultSize())
		m, err := p.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		if _, err := ptxas.Compile(m, ptxas.Options{}); err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
	}
}

func TestOracleCleanOnGeneratedKernels(t *testing.T) {
	runs := 6
	if testing.Short() {
		runs = 2
	}
	c := &Campaign{Seed: 1, Runs: runs, Size: DefaultSize()}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errors {
		t.Errorf("harness error: %v", e)
	}
	for _, f := range res.Failures {
		t.Errorf("run %d (seed %#x) diverged: %s", f.Run, f.Seed, f.Failures[0])
	}
	if res.Launches == 0 {
		t.Fatal("campaign ran no launches")
	}
}

// mutantVictim returns a generated kernel whose register allocation
// extends past the injection ABI's scratch window, so a register at
// HandlerMaxRegs is both allocatable and (thanks to the checksum
// epilogue keeping the pools live) live across instrumentation sites.
func mutantVictim(t *testing.T) *Prog {
	t.Helper()
	for seed := uint64(0); seed < 64; seed++ {
		p := Generate(SplitMix(99, seed), DefaultSize())
		m, err := p.Build()
		if err != nil {
			continue
		}
		prog, err := ptxas.Compile(m, ptxas.Options{})
		if err != nil {
			continue
		}
		if prog.Kernels[0].NumRegs > sassi.HandlerMaxRegs+1 {
			return p
		}
	}
	t.Fatal("no generated kernel allocates past the handler scratch window")
	return nil
}

// TestOracleCatchesMutantClobber seeds the known transparency bug —
// an injected handler clobbering a live register above the save/restore
// window — and requires the oracle to flag it.
func TestOracleCatchesMutantClobber(t *testing.T) {
	p := mutantVictim(t)
	o := NewOracle([]Tool{MutantClobberTool(uint8(sassi.HandlerMaxRegs))})
	res, err := o.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("oracle missed the mutant clobber of live R%d", sassi.HandlerMaxRegs)
	}
	found, foundMixed := false, false
	for _, f := range res.Failures {
		if f.Axis == "transparency" {
			found = true
			foundMixed = foundMixed || strings.Contains(f.Got, "@cta")
		}
	}
	if !found {
		t.Fatalf("mutant clobber reported, but not on the transparency axis: %v", res.Failures)
	}
	if !foundMixed {
		t.Fatalf("mutant clobber missed in the launch that runs one CTA instrumented: %v", res.Failures)
	}
}

// TestMixedLaunchRejectsLayoutMutants seeds the twins a per-CTA kernel
// selection must not accept — the same generated kernel with another
// shared-memory size or another parameter list, either of which would run
// the picked CTA against a constant bank and a shared window laid out for
// a different kernel — and requires the launch to refuse them.
func TestMixedLaunchRejectsLayoutMutants(t *testing.T) {
	p := Generate(SplitMix(1, 0), DefaultSize())
	o := NewOracle(nil)
	base, err := o.compile(p)
	if err != nil {
		t.Fatal(err)
	}
	mutants := map[string]func(k *sass.Kernel){
		"shared bytes": func(k *sass.Kernel) { k.SharedBytes += 16 },
		"extra param":  func(k *sass.Kernel) { k.AddParam("extra", 4) },
		"param offset": func(k *sass.Kernel) { k.Params[1].Offset += 8 },
	}
	for name, mutate := range mutants {
		twin, err := o.compile(p)
		if err != nil {
			t.Fatal(err)
		}
		mutate(twin.Kernels[0])
		dev := sim.NewDevice(o.Cfg)
		_, err = dev.Launch(base, KernelName, sim.LaunchParams{
			Grid: sim.D1(p.GridX), Block: sim.D1(p.BlockX), Args: make([]uint64, 3),
			Twin: &sim.Twin{Prog: twin, CTAs: func(cta int) bool { return cta == 0 }},
		})
		var te *sim.TwinError
		if !errors.As(err, &te) {
			t.Errorf("%s mutant: launch returned %v, want a *sim.TwinError", name, err)
		}
	}
}

// TestMutantInScratchWindowIsTransparent clobbers a register the
// injection ABI owns (below HandlerMaxRegs). Live low registers are
// saved and restored around the handler call and dead ones are excluded
// from the transparency contract, so the oracle must stay quiet — this
// pins the comparison boundary at exactly HandlerMaxRegs.
func TestMutantInScratchWindowIsTransparent(t *testing.T) {
	p := mutantVictim(t)
	o := NewOracle([]Tool{MutantClobberTool(sassi.ABIArg0)})
	res, err := o.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		t.Errorf("scratch-window clobber falsely reported: %s", f)
	}
}

// TestRegressionRepros replays every minimized kernel the campaign ever
// flagged (checked in under testdata/regress-*.ptx) through the full
// oracle matrix. Each file pins one fixed bug — see its comment header:
// skipped handler symbols with no JCAL sites, dead atomic fetch registers
// carrying scheduler-dependent bits, and non-commuting atomic op mixes.
func TestRegressionRepros(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "regress-*.ptx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected at least 3 regression repros, found %d", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ParseRepro(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := NewOracle(nil).Run(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Failures {
				t.Errorf("regression: %s", f)
			}
		})
	}
}

func TestSelectTools(t *testing.T) {
	all, err := SelectTools("all")
	if err != nil || len(all) != len(Tools()) {
		t.Fatalf("SelectTools(all) = %d tools, err %v", len(all), err)
	}
	two, err := SelectTools("branch, memdiv")
	if err != nil || len(two) != 2 || two[0].Name != "branch" || two[1].Name != "memdiv" {
		t.Fatalf("SelectTools(branch, memdiv) = %v, err %v", two, err)
	}
	if _, err := SelectTools("nosuch"); err == nil ||
		!strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("SelectTools(nosuch) err = %v", err)
	}
}

func TestSplitMixMatchesCampaignDerivation(t *testing.T) {
	// Per-run seeds must be a pure function of (seed, run): two campaigns
	// at different worker counts generate identical kernels per run index.
	for run := uint64(0); run < 8; run++ {
		if SplitMix(1, run) == SplitMix(1, run+1) {
			t.Fatalf("adjacent runs share a derived seed at run %d", run)
		}
		a := Generate(SplitMix(1, run), DefaultSize())
		b := Generate(SplitMix(1, run), DefaultSize())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: kernel depends on more than the derived seed", run)
		}
	}
}
