package sim_test

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
)

// copyKernel returns "copy", a kernel in which grid thread g loads in[g]
// and stores it, plus whoami, to out[g]: whoami is
// SR_NCTAID.X<<16 | SR_CTAID.X<<8 | SR_SMID. Every thread then issues the
// global atomic atom names on in[0], with operand 1:
//   - "red": RED.ADD, a reduction;
//   - "atom-rz": ATOM.ADD to RZ, a reduction too;
//   - "atom": ATOM.ADD to R7, which writes a register;
//   - "add64": RED.ADD.64;
//   - "max": RED.MAX;
//   - "unaligned": RED.ADD two bytes past in[0];
//
// and none for "".
func copyKernel(t *testing.T, atom string) (*sass.Program, int) {
	t.Helper()
	r, imm := sass.R, sass.Imm
	k := &sass.Kernel{Name: "copy", NumRegs: 16, Labels: map[string]int{}}
	out := k.AddParam("out", 8)
	in := k.AddParam("in", 8)
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{r(2)}, []sass.Operand{sass.CMem(0, int64(out))}),
		sass.New(sass.OpMOV, []sass.Operand{r(3)}, []sass.Operand{sass.CMem(0, int64(out+4))}),
		sass.New(sass.OpMOV, []sass.Operand{r(12)}, []sass.Operand{sass.CMem(0, int64(in))}),
		sass.New(sass.OpMOV, []sass.Operand{r(13)}, []sass.Operand{sass.CMem(0, int64(in+4))}),
		sass.New(sass.OpS2R, []sass.Operand{r(0)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpS2R, []sass.Operand{r(5)}, []sass.Operand{sass.SReg(sass.SRCtaidX)}),
		sass.New(sass.OpS2R, []sass.Operand{r(6)}, []sass.Operand{sass.SReg(sass.SRNTidX)}),
		sass.New(sass.OpS2R, []sass.Operand{r(8)}, []sass.Operand{sass.SReg(sass.SRNCtaidX)}),
		sass.New(sass.OpS2R, []sass.Operand{r(9)}, []sass.Operand{sass.SReg(sass.SRSMID)}),
		sass.New(sass.OpIMAD, []sass.Operand{r(10)}, []sass.Operand{r(8), imm(1 << 16), r(9)}),
		sass.New(sass.OpIMAD, []sass.Operand{r(10)}, []sass.Operand{r(5), imm(1 << 8), r(10)}),
		sass.New(sass.OpIMAD, []sass.Operand{r(4)}, []sass.Operand{r(5), r(6), r(0)}),
		sass.New(sass.OpSHL, []sass.Operand{r(4)}, []sass.Operand{r(4), imm(2)}),
		sass.New(sass.OpIADD, []sass.Operand{r(2)}, []sass.Operand{r(2), r(4)}),
		sass.New(sass.OpIADD, []sass.Operand{r(14)}, []sass.Operand{r(12), r(4)}),
		sass.New(sass.OpMOV, []sass.Operand{r(15)}, []sass.Operand{r(13)}),
		{Guard: sass.Always, Op: sass.OpLDG, Mods: sass.Mods{E: true},
			Dsts: []sass.Operand{r(11)}, Srcs: []sass.Operand{sass.Mem(14, 0)}},
		sass.New(sass.OpIADD, []sass.Operand{r(10)}, []sass.Operand{r(10), r(11)}),
	}
	store := len(k.Instrs)
	k.Instrs = append(k.Instrs, sass.Instruction{Guard: sass.Always, Op: sass.OpSTG, Mods: sass.Mods{E: true},
		Srcs: []sass.Operand{sass.Mem(2, 0), r(10)}})
	if atom != "" {
		at := sass.Instruction{Guard: sass.Always, Op: sass.OpRED, Mods: sass.Mods{Atom: sass.AtomADD, E: true},
			Srcs: []sass.Operand{sass.Mem(12, 0), r(6)}}
		switch atom {
		case "atom-rz", "atom":
			at.Op, at.Dsts = sass.OpATOM, []sass.Operand{r(sass.RZ)}
			if atom == "atom" {
				at.Dsts[0] = r(7)
			}
		case "add64":
			at.Mods.Width = sass.W64
		case "max":
			at.Mods.Atom = sass.AtomMAX
		case "unaligned":
			at.Srcs[0] = sass.Mem(12, 2)
		}
		k.Instrs = append(k.Instrs,
			sass.New(sass.OpMOV, []sass.Operand{r(6)}, []sass.Operand{imm(1)}),
			sass.New(sass.OpMOV, []sass.Operand{r(7)}, []sass.Operand{imm(0)}),
			at)
	}
	k.Instrs = append(k.Instrs, sass.New(sass.OpEXIT, nil, nil))
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	return prog, store
}

const copyCTAs, copyThreads = 12, 64

// copyLaunch allocates copyKernel's buffers on dev, in[g] = 1000+g, and
// returns their addresses and the launch parameters.
func copyLaunch(dev *sim.Device) (out, in uint64, p sim.LaunchParams) {
	n := copyCTAs * copyThreads
	out, in = dev.Alloc(uint64(4*n)), dev.Alloc(uint64(4*n))
	for g := 0; g < n; g++ {
		_ = dev.Global.Write32(in+uint64(4*g), uint32(1000+g))
	}
	return out, in, sim.LaunchParams{Grid: sim.D1(copyCTAs), Block: sim.D1(copyThreads), Args: []uint64{out, in}}
}

// ctaLines returns the lines of CTA cta's words of the buffer at base.
func ctaLines(base uint64, cta int, lineBytes uint64) []uint64 {
	var lines []uint64
	for a := base + uint64(4*cta*copyThreads); a < base+uint64(4*(cta+1)*copyThreads); a += lineBytes {
		lines = append(lines, a&^(lineBytes-1))
	}
	return lines
}

// sortedLines returns lines ascending, without repeats.
func sortedLines(lines []uint64) []uint64 {
	lines = slices.Clone(lines)
	slices.Sort(lines)
	return slices.Compact(lines)
}

// TestTwinCTASubset: a launch whose Twin picks a CTA subset runs those
// CTAs alone, each on the SM the whole grid gives it, and they read the
// whole grid's SR_NCTAID and their own SR_CTAID; the other CTAs' words are
// never written. On either core and either SM dispatch.
func TestTwinCTASubset(t *testing.T) {
	prog, _ := copyKernel(t, "")
	subset := []int{1, 6, 11}
	for _, ref := range []bool{false, true} {
		for _, seq := range []bool{false, true} {
			t.Run(fmt.Sprintf("reference=%v/sequentialSMs=%v", ref, seq), func(t *testing.T) {
				newDev := func() *sim.Device {
					cfg := sim.MiniGPU()
					cfg.SequentialSMs = seq
					dev := sim.NewDevice(cfg)
					if ref {
						simref.Install(dev)
					}
					return dev
				}
				whole := newDev()
				wantOut, _, p := copyLaunch(whole)
				if _, err := whole.Launch(prog, "copy", p); err != nil {
					t.Fatal(err)
				}
				dev := newDev()
				out, _, p := copyLaunch(dev)
				// CTARetire runs on the SM goroutines.
				var retired [copyCTAs]atomic.Int32
				dev.CTARetire = func(cta *sim.CTA) {
					retired[cta.Index].Add(1)
					if cta.SM != cta.Index%dev.Cfg.NumSMs {
						t.Errorf("CTA %d ran on SM %d", cta.Index, cta.SM)
					}
				}
				p.Twin = &sim.Twin{Prog: prog, Warps: func(int, int) bool { return false },
					CTAs: func(cta int) bool { return slices.Contains(subset, cta) }}
				if _, err := dev.Launch(prog, "copy", p); err != nil {
					t.Fatal(err)
				}
				for c := range retired {
					if n, want := retired[c].Load(), slices.Contains(subset, c); n != 0 != want || n > 1 {
						t.Errorf("CTA %d retired %d times", c, n)
					}
				}
				for g := 0; g < copyCTAs*copyThreads; g++ {
					got, _ := dev.Global.Read32(out + uint64(4*g))
					want, _ := whole.Global.Read32(wantOut + uint64(4*g))
					if !slices.Contains(subset, g/copyThreads) {
						want = 0
					}
					if got != want {
						t.Fatalf("thread %d stored %#x, want %#x", g, got, want)
					}
				}
				if n := dev.LiveSlabs(); n != 0 {
					t.Errorf("%d slabs outstanding", n)
				}
			})
		}
	}
}

// TestFenceStopsLaunch: a fence sees every global line a fenced CTA loads,
// stores and reduces, and the launch stops with a *sim.FenceError naming
// the CTA, the pc and the kind of access where it refuses one. A refused
// reduction and any other global atomic stop a fenced launch before it
// changes memory.
func TestFenceStopsLaunch(t *testing.T) {
	const cta = 5
	for _, ref := range []bool{false, true} {
		t.Run(fmt.Sprintf("reference=%v", ref), func(t *testing.T) {
			newDev := func() *sim.Device {
				dev := sim.NewDevice(sim.MiniGPU())
				if ref {
					simref.Install(dev)
				}
				return dev
			}
			prog, store := copyKernel(t, "red")
			only := func(c int) bool { return c == cta }
			none := func(int, int) bool { return false }

			// A fence that permits everything is asked about cta's lines,
			// and the reduction goes through.
			dev := newDev()
			out, in, p := copyLaunch(dev)
			asked := map[sim.Access][]uint64{}
			p.Twin = &sim.Twin{Prog: prog, Warps: none, CTAs: only, Fence: func(lines []uint64, kind sim.Access) bool {
				asked[kind] = append(asked[kind], lines...)
				return true
			}}
			if _, err := dev.Launch(prog, "copy", p); err != nil {
				t.Fatal(err)
			}
			lb := dev.Cfg.CoalesceBytes
			for kind, want := range map[sim.Access][]uint64{
				sim.AccessLoad: ctaLines(in, cta, lb), sim.AccessStore: ctaLines(out, cta, lb), sim.AccessReduce: {in &^ (lb - 1)},
			} {
				if got := sortedLines(asked[kind]); !slices.Equal(got, want) {
					t.Errorf("%v: fence asked about %x, want %x", kind, got, want)
				}
			}
			if len(asked) != 3 {
				t.Errorf("fence asked about %v", asked)
			}
			if v, _ := dev.Global.Read32(in); v != 1000+copyThreads {
				t.Errorf("in[0] = %d after one CTA's reductions, want %d", v, 1000+copyThreads)
			}

			// A fence that refuses stores stops the launch at the store.
			dev = newDev()
			_, _, p = copyLaunch(dev)
			p.Twin = &sim.Twin{Prog: prog, Warps: none, CTAs: only, Fence: func(_ []uint64, kind sim.Access) bool { return kind != sim.AccessStore }}
			_, err := dev.Launch(prog, "copy", p)
			var fe *sim.FenceError
			if !errors.As(err, &fe) || fe.CTA != cta || fe.PC != store || fe.Access != sim.AccessStore {
				t.Errorf("refused store: launch ended with %#v", err)
			}
			if n := dev.LiveSlabs(); n != 0 {
				t.Errorf("%d slabs outstanding", n)
			}

			// A refused reduction, and any other global atomic under a
			// fence that permits everything, stop the launch untouched.
			for _, tc := range []struct {
				atom   string
				refuse sim.Access
				want   sim.Access
			}{
				{"red", sim.AccessReduce, sim.AccessReduce},
				{"atom-rz", sim.AccessReduce, sim.AccessReduce},
				{"atom", sim.AccessAtomic, sim.AccessAtomic},
				{"add64", sim.AccessAtomic, sim.AccessAtomic},
				{"max", sim.AccessAtomic, sim.AccessAtomic},
				{"unaligned", sim.AccessAtomic, sim.AccessAtomic},
			} {
				atom, _ := copyKernel(t, tc.atom)
				dev = newDev()
				_, in, p = copyLaunch(dev)
				p.Twin = &sim.Twin{Prog: atom, Warps: none, CTAs: only, Fence: func(_ []uint64, kind sim.Access) bool { return kind != tc.refuse }}
				_, err = dev.Launch(atom, "copy", p)
				if !errors.As(err, &fe) || fe.CTA != cta || fe.Access != tc.want {
					t.Errorf("%s: launch ended with %#v", tc.atom, err)
				}
				if v, _ := dev.Global.Read32(in); v != 1000 {
					t.Errorf("%s: in[0] = %d after a fenced atomic, want 1000", tc.atom, v)
				}
			}
		})
	}
}

// TestSiteProbeFootprint: the probe reports, per CTA, the lines its warps
// loaded, stored and reduced, ascending and without repeats, what its
// reductions added to each word, and whether it issued a global atomic
// other than a reduction, whose lines count as loaded and stored. A
// reduction is an ADD to aligned 4-byte words that writes no register: an
// ATOM with a destination, a 64-bit ADD, a MAX and an ADD to a misaligned
// word are none.
func TestSiteProbeFootprint(t *testing.T) {
	for _, tc := range []struct{ name, atom string }{
		{"red=false", ""}, {"red=true", "red"}, {"atom=rz", "atom-rz"}, {"atom=dst", "atom"}, {"add64", "add64"}, {"max", "max"}, {"unaligned", "unaligned"},
	} {
		atom := tc.atom
		t.Run(tc.name, func(t *testing.T) {
			prog, _ := copyKernel(t, atom)
			dev := sim.NewDevice(sim.MiniGPU())
			probe := &probeRecorder{weights: map[string][]uint32{"copy": make([]uint32, len(prog.Kernels[0].Instrs))}}
			dev.Probe = probe
			out, in, p := copyLaunch(dev)
			if _, err := dev.Launch(prog, "copy", p); err != nil {
				t.Fatal(err)
			}
			if len(probe.footprints) != 1 {
				t.Fatalf("%d footprints for one launch", len(probe.footprints))
			}
			f := probe.footprints[0]
			lb := dev.Cfg.CoalesceBytes
			if f.LineBytes != lb || len(f.Loads) != copyCTAs || len(f.Stores) != copyCTAs || len(f.Reduces) != copyCTAs ||
				len(f.Atomic) != copyCTAs || len(f.Deltas) != copyCTAs {
				t.Fatalf("footprint of %d-byte lines over %d/%d/%d/%d/%d CTAs", f.LineBytes,
					len(f.Loads), len(f.Stores), len(f.Reduces), len(f.Atomic), len(f.Deltas))
			}
			reduction := atom == "red" || atom == "atom-rz"
			atomic := atom != "" && !reduction
			first := in &^ (lb - 1)
			for c := 0; c < copyCTAs; c++ {
				loads, stores := ctaLines(in, c, lb), ctaLines(out, c, lb)
				var reduces []uint64
				var deltas []sim.Delta
				if atomic {
					loads = sortedLines(append(loads, first))
					stores = sortedLines(append(stores, first))
				}
				if reduction {
					reduces, deltas = []uint64{first}, []sim.Delta{{Addr: in, Sum: copyThreads}}
				}
				if !slices.Equal(f.Loads[c], loads) || !slices.Equal(f.Stores[c], stores) || !slices.Equal(f.Reduces[c], reduces) ||
					!slices.Equal(f.Deltas[c], deltas) || f.Atomic[c] != atomic {
					t.Errorf("CTA %d: loads %x stores %x reduces %x deltas %v atomic %v\nwant loads %x stores %x reduces %x deltas %v atomic %v",
						c, f.Loads[c], f.Stores[c], f.Reduces[c], f.Deltas[c], f.Atomic[c], loads, stores, reduces, deltas, atomic)
				}
			}
		})
	}
}
