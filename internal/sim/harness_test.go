package sim_test

import (
	"reflect"
	"testing"

	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/sim/simref"
)

// warpHarness executes a hand-assembled instruction sequence on a single
// 32-lane warp and returns the chosen registers of every lane, observed by
// storing them to global memory in an epilogue. The harness reserves
// R40-R47 for its own prologue/epilogue; test code may use R0-R39. Inputs,
// when given, are loaded lane by lane into their registers before the
// sequence runs. Every
// sequence runs on the default core and on the reference interpreter, and
// the two must agree, so each instruction-semantics test also pins the
// predecoded class of what it exercises to the interpreter's case.
type warpHarness struct {
	instrs  []sass.Instruction
	labels  map[string]int
	outRegs []uint8
	inputs  []laneInput
	threads int // defaults to 32
	// handler, when set, runs at every JCAL to the symbol "h", on both
	// devices.
	handler func(w *sim.Warp)
}

// funcDispatcher runs one handler function for every handler id.
type funcDispatcher func(w *sim.Warp)

func (f funcDispatcher) Dispatch(_ *sim.Device, w *sim.Warp, _ int) error {
	f(w)
	return nil
}

// laneInput sets register reg of lane l to v[l] before the sequence runs.
type laneInput struct {
	reg uint8
	v   [32]uint32
}

const (
	hOut = 40 // R40/R41: output pointer
	hTid = 42
	hTmp = 43
	hIn  = 44 // R44/R45: input pointer
)

// kernel assembles the harness kernel: input prologue, the sequence, and
// the output epilogue.
func (h *warpHarness) kernel(t *testing.T) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{Name: "t", Labels: map[string]int{}}
	outOff := k.AddParam("out", 8)
	nin := len(h.inputs)
	if nin > 0 {
		inOff := k.AddParam("in", 8)
		k.Instrs = append(k.Instrs,
			sass.New(sass.OpMOV, []sass.Operand{sass.R(hIn)}, []sass.Operand{sass.CMem(0, int64(inOff))}),
			sass.New(sass.OpMOV, []sass.Operand{sass.R(hIn + 1)}, []sass.Operand{sass.CMem(0, int64(inOff+4))}),
			sass.New(sass.OpS2R, []sass.Operand{sass.R(hTid)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
			sass.New(sass.OpMOV32, []sass.Operand{sass.R(hTmp)}, []sass.Operand{sass.Imm(int64(4 * nin))}),
			sass.New(sass.OpIMUL, []sass.Operand{sass.R(hTid)}, []sass.Operand{sass.R(hTid), sass.R(hTmp)}),
			sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
				Dsts: []sass.Operand{sass.R(hIn)}, Srcs: []sass.Operand{sass.R(hIn), sass.R(hTid)}},
			sass.Instruction{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
				Dsts: []sass.Operand{sass.R(hIn + 1)}, Srcs: []sass.Operand{sass.R(hIn + 1), sass.R(sass.RZ)}})
		for i, in := range h.inputs {
			k.Instrs = append(k.Instrs, sass.Instruction{Guard: sass.Always, Op: sass.OpLDG,
				Mods: sass.Mods{E: true}, Dsts: []sass.Operand{sass.R(in.reg)},
				Srcs: []sass.Operand{sass.Mem(hIn, int64(4*i))}})
		}
	}
	for name, idx := range h.labels {
		k.Labels[name] = len(k.Instrs) + idx
	}
	k.Instrs = append(k.Instrs, h.instrs...)
	epiStart := len(k.Instrs)
	nout := len(h.outRegs)
	epi := []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(hOut)}, []sass.Operand{sass.CMem(0, int64(outOff))}),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(hOut + 1)}, []sass.Operand{sass.CMem(0, int64(outOff+4))}),
		sass.New(sass.OpS2R, []sass.Operand{sass.R(hTid)}, []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpMOV32, []sass.Operand{sass.R(hTmp)}, []sass.Operand{sass.Imm(int64(4 * nout))}),
		sass.New(sass.OpIMUL, []sass.Operand{sass.R(hTid)}, []sass.Operand{sass.R(hTid), sass.R(hTmp)}),
		{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{SetCC: true},
			Dsts: []sass.Operand{sass.R(hOut)}, Srcs: []sass.Operand{sass.R(hOut), sass.R(hTid)}},
		{Guard: sass.Always, Op: sass.OpIADD, Mods: sass.Mods{X: true},
			Dsts: []sass.Operand{sass.R(hOut + 1)}, Srcs: []sass.Operand{sass.R(hOut + 1), sass.R(sass.RZ)}},
	}
	for i, r := range h.outRegs {
		epi = append(epi, sass.Instruction{Guard: sass.Always, Op: sass.OpSTG,
			Mods: sass.Mods{E: true},
			Srcs: []sass.Operand{sass.Mem(hOut, int64(4*i)), sass.R(r)}})
	}
	epi = append(epi, sass.New(sass.OpEXIT, nil, nil))
	k.Instrs = append(k.Instrs, epi...)
	// "exit"-style label convention: tests may branch to the epilogue.
	if _, ok := k.Labels["epilogue"]; !ok {
		k.Labels["epilogue"] = epiStart
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	k.NumRegs = 48
	requireWellFormed(t, k)
	return k
}

// requireWellFormed fails t at the first instruction of k that
// sass.Kernel.CheckInstr refuses.
func requireWellFormed(t *testing.T, k *sass.Kernel) {
	t.Helper()
	for i := range k.Instrs {
		if _, err := k.CheckInstr(i); err != nil {
			t.Fatalf("%s@%d: %v", k.Name, i, err)
		}
	}
}

func (h *warpHarness) run(t *testing.T) [][]uint32 {
	t.Helper()
	if h.threads == 0 {
		h.threads = 32
	}
	nin, nout := len(h.inputs), len(h.outRegs)
	prog := sass.NewProgram()
	if h.handler != nil {
		prog.InternHandler("h")
	}
	prog.AddKernel(h.kernel(t))

	launch := func(dev *sim.Device) [][]uint32 {
		if h.handler != nil {
			dev.Dispatcher = funcDispatcher(h.handler)
		}
		out := dev.Alloc(uint64(4 * nout * h.threads))
		args := []uint64{out}
		if nin > 0 {
			in := dev.Alloc(uint64(4 * nin * h.threads))
			for lane := 0; lane < h.threads; lane++ {
				for i := range h.inputs {
					if err := dev.Global.Write32(in+uint64(4*(lane*nin+i)), h.inputs[i].v[lane]); err != nil {
						t.Fatal(err)
					}
				}
			}
			args = append(args, in)
		}
		_, err := dev.Launch(prog, "t", sim.LaunchParams{
			Grid: sim.D1(1), Block: sim.D1(h.threads), Args: args,
		})
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		res := make([][]uint32, h.threads)
		for lane := 0; lane < h.threads; lane++ {
			res[lane] = make([]uint32, nout)
			for i := 0; i < nout; i++ {
				v, err := dev.Global.Read32(out + uint64(4*(lane*nout+i)))
				if err != nil {
					t.Fatal(err)
				}
				res[lane][i] = v
			}
		}
		return res
	}
	res := launch(sim.NewDevice(sim.MiniGPU()))
	if want := launch(refDevice(sim.MiniGPU())); !reflect.DeepEqual(res, want) {
		t.Fatalf("default core differs from the reference interpreter:\n got %v\nwant %v", res, want)
	}
	return res
}

// refDevice returns a device on cfg that runs the reference interpreter.
func refDevice(cfg sim.Config) *sim.Device {
	dev := sim.NewDevice(cfg)
	simref.Install(dev)
	return dev
}

// runErr runs the harness on dev expecting a launch failure and returns it.
func (h *warpHarness) runErr(t *testing.T, dev *sim.Device) error {
	t.Helper()
	if h.threads == 0 {
		h.threads = 32
	}
	k := &sass.Kernel{Name: "t", Labels: map[string]int{}, NumRegs: 48}
	k.AddParam("out", 8)
	for name, idx := range h.labels {
		k.Labels[name] = idx
	}
	k.Instrs = append(k.Instrs, h.instrs...)
	k.Instrs = append(k.Instrs, sass.New(sass.OpEXIT, nil, nil))
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	out := dev.Alloc(16)
	_, err := dev.Launch(prog, "t", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(h.threads), Args: []uint64{out},
	})
	return err
}

// Assembly shorthands.

func movi(r uint8, v int64) sass.Instruction {
	return sass.New(sass.OpMOV32, []sass.Operand{sass.R(r)}, []sass.Operand{sass.Imm(v)})
}

func tid(r uint8) sass.Instruction {
	return sass.New(sass.OpS2R, []sass.Operand{sass.R(r)}, []sass.Operand{sass.SReg(sass.SRTidX)})
}

func alu(op sass.Opcode, mods sass.Mods, d uint8, srcs ...sass.Operand) sass.Instruction {
	return sass.Instruction{Guard: sass.Always, Op: op, Mods: mods,
		Dsts: []sass.Operand{sass.R(d)}, Srcs: srcs}
}

func setp(p uint8, cmp sass.CmpOp, unsigned bool, a, b sass.Operand) sass.Instruction {
	return sass.Instruction{Guard: sass.Always, Op: sass.OpISETP,
		Mods: sass.Mods{Cmp: cmp, Unsigned: unsigned, Logic: sass.LogicAND},
		Dsts: []sass.Operand{sass.P(p)},
		Srcs: []sass.Operand{a, b, sass.P(sass.PT)}}
}

func guarded(in sass.Instruction, p uint8, neg bool) sass.Instruction {
	in.Guard = sass.PredGuard{Reg: p, Neg: neg}
	return in
}

func bra(label string) sass.Instruction {
	return sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label(label)})
}

func ssy(label string) sass.Instruction {
	return sass.New(sass.OpSSY, nil, []sass.Operand{sass.Label(label)})
}

func sync() sass.Instruction { return sass.New(sass.OpSYNC, nil, nil) }
