package sim_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"sassi/internal/obs"
	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
)

// idDispatcher counts its calls per handler id (0 or 1).
type idDispatcher struct{ ids [2]atomic.Int64 }

func (d *idDispatcher) Dispatch(_ *sim.Device, _ *sim.Warp, id int) error {
	d.ids[id].Add(1)
	return nil
}

// jcalKernel calls handler h n times per warp; with ghost set, CTA 1 then
// calls the symbol ghost.
func jcalKernel(t *testing.T, n int, ghost bool) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{Name: "calls", NumRegs: 16, Labels: map[string]int{}}
	for i := 0; i < n; i++ {
		k.Instrs = append(k.Instrs, sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("h")}))
	}
	if ghost {
		k.Instrs = append(k.Instrs,
			sass.New(sass.OpS2R, []sass.Operand{sass.R(0)}, []sass.Operand{sass.SReg(sass.SRCtaidX)}),
			sass.Instruction{Guard: sass.Always, Op: sass.OpISETP, Mods: sass.Mods{Cmp: sass.CmpNE, Logic: sass.LogicAND},
				Dsts: []sass.Operand{sass.P(0)}, Srcs: []sass.Operand{sass.R(0), sass.Imm(1), sass.P(sass.PT)}},
			sass.Instruction{Guard: sass.PredGuard{Reg: 0}, Op: sass.OpBRA, Srcs: []sass.Operand{sass.Label("end")}},
			sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("ghost")}))
		k.Labels["end"] = len(k.Instrs)
	}
	k.Instrs = append(k.Instrs, sass.New(sass.OpEXIT, nil, nil))
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestJCALResolvedPerProgram: a JCAL's handler id comes from the symbol
// table of the program launched, even when two programs link one kernel
// under different ids, on both cores; and a symbol the program does not
// link fails the launch with the unlinked-symbol error when the JCAL
// executes — a launch whose CTAs never reach it runs clean.
func TestJCALResolvedPerProgram(t *testing.T) {
	k := jcalKernel(t, 1, true)
	a, b := sass.NewProgram(), sass.NewProgram()
	a.InternHandler("other")
	a.InternHandler("h") // id 1
	b.InternHandler("h") // id 0
	a.AddKernel(k)
	b.AddKernel(k)
	for _, ref := range []bool{false, true} {
		t.Run(fmt.Sprintf("reference=%v", ref), func(t *testing.T) {
			dev := sim.NewDevice(sim.MiniGPU())
			if ref {
				simref.Install(dev)
			}
			for _, tc := range []struct {
				prog *sass.Program
				id   int
			}{{a, 1}, {b, 0}} {
				d := &idDispatcher{}
				dev.Dispatcher = d
				if _, err := dev.Launch(tc.prog, "calls", sim.LaunchParams{Grid: sim.D1(1), Block: sim.D1(64)}); err != nil {
					t.Fatal(err)
				}
				if n, other := d.ids[tc.id].Load(), d.ids[1-tc.id].Load(); n != 2 || other != 0 {
					t.Errorf("dispatched id %d %d times and id %d %d times, want id %d twice",
						tc.id, n, 1-tc.id, other, tc.id)
				}
			}
			_, err := dev.Launch(a, "calls", sim.LaunchParams{Grid: sim.D1(2), Block: sim.D1(64)})
			var ke *sim.KernelError
			if !errors.As(err, &ke) || !strings.Contains(err.Error(), `JCAL to unlinked symbol "ghost"`) {
				t.Errorf("launch reaching the unlinked JCAL: %v", err)
			}
		})
	}
}

// TestTracedJCALNamesSpanOnce: with a trace attached, a JCAL's span name is
// built once per launch and handler, not on every call — a launch making
// 64 calls per warp allocates what a launch making one does, on both cores.
func TestTracedJCALNamesSpanOnce(t *testing.T) {
	for _, ref := range []bool{false, true} {
		t.Run(fmt.Sprintf("reference=%v", ref), func(t *testing.T) {
			cfg := sim.MiniGPU()
			cfg.SequentialSMs = true
			allocs := func(n int) float64 {
				prog := sass.NewProgram()
				prog.InternHandler("h")
				prog.AddKernel(jcalKernel(t, n, false))
				dev := sim.NewDevice(cfg)
				if ref {
					simref.Install(dev)
				}
				dev.Dispatcher = &idDispatcher{}
				// Past its cap the tracer drops spans without storing them,
				// so what a call allocates is the span's name alone.
				dev.Trace = &obs.Tracer{MaxEvents: 1}
				launch := func() {
					if _, err := dev.Launch(prog, "calls", sim.LaunchParams{Grid: sim.D1(1), Block: sim.D1(32)}); err != nil {
						t.Fatal(err)
					}
				}
				launch()
				return testing.AllocsPerRun(10, launch)
			}
			one, many := allocs(1), allocs(64)
			if many-one > 8 {
				t.Errorf("a launch allocates %.0f times with 64 traced calls per warp, %.0f with one", many, one)
			}
		})
	}
}
