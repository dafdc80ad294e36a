package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// agreementBase is wellFormed's instruction of op with a memory reference
// as a memory op's address, a label to the kernel's EXIT as a branch
// target and a symbol as a JCAL's; for a reserved opcode number, one with
// no operands.
func agreementBase(t *testing.T, op sass.Opcode) sass.Instruction {
	if !op.Defined() {
		return sass.Instruction{Guard: sass.Always, Op: op}
	}
	in := wellFormed(t, op)
	switch {
	case op == sass.OpBRA || op == sass.OpSSY || op == sass.OpCAL:
		in.Srcs[0] = sass.Operand{Kind: sass.OpdLabel, Name: "exit", Imm: 1}
	case op == sass.OpJCAL:
		in.Srcs[0] = sass.Sym("h")
	case op.IsMem():
		in.Srcs[0] = sass.Mem(4, 0)
	}
	return in
}

type operandVariant struct {
	name string
	in   sass.Instruction
}

// malformedVariants returns base with, in turn: each operand dropped; RZ,
// R9 and a .128 group at R253 at each position that holds no branch or
// call target; an undefined operand kind at each position; width 7; a
// memory op's .E address pair at R254; and a label past the end of a
// two-instruction kernel. Some of them are well formed for some opcodes
// (R9 where a GPR is read, a .128 group where no width applies).
func malformedVariants(base sass.Instruction) []operandVariant {
	var vs []operandVariant
	add := func(name string, edit func(in *sass.Instruction)) {
		in := base.Clone()
		edit(&in)
		vs = append(vs, operandVariant{name, in})
	}
	at := func(in *sass.Instruction, pos int) *sass.Operand {
		if pos < len(in.Dsts) {
			return &in.Dsts[pos]
		}
		return &in.Srcs[pos-len(in.Dsts)]
	}
	for pos := 0; pos < len(base.Dsts)+len(base.Srcs); pos++ {
		add(fmt.Sprintf("drop%d", pos), func(in *sass.Instruction) {
			if pos < len(in.Dsts) {
				in.Dsts = append(in.Dsts[:pos], in.Dsts[pos+1:]...)
			} else {
				d := pos - len(in.Dsts)
				in.Srcs = append(in.Srcs[:d], in.Srcs[d+1:]...)
			}
		})
		add(fmt.Sprintf("kind99@%d", pos), func(in *sass.Instruction) { at(in, pos).Kind = 99 })
		if k := at(&base, pos).Kind; k == sass.OpdLabel || k == sass.OpdSym {
			continue
		}
		add(fmt.Sprintf("RZ@%d", pos), func(in *sass.Instruction) { *at(in, pos) = sass.R(sass.RZ) })
		add(fmt.Sprintf("R9@%d", pos), func(in *sass.Instruction) { *at(in, pos) = sass.R(9) })
		add(fmt.Sprintf("R253.128@%d", pos), func(in *sass.Instruction) {
			in.Mods.Width = sass.W128
			*at(in, pos) = sass.R(253)
		})
	}
	add("width7", func(in *sass.Instruction) { in.Mods.Width = 7 })
	if len(base.Srcs) > 0 && base.Srcs[0].Kind == sass.OpdMem {
		add("E@R254", func(in *sass.Instruction) {
			in.Mods.E = true
			in.Srcs[0].Reg = 254
		})
	}
	add("label3", func(in *sass.Instruction) {
		in.Srcs = append(in.Srcs, sass.Operand{Kind: sass.OpdLabel, Name: "past", Imm: 3})
	})
	return vs
}

// structuralErrors returns the messages of the structural errors
// analysis.CheckStructure reports at instruction pc of k.
func structuralErrors(k *sass.Kernel, pc int) []string {
	var msgs []string
	for _, d := range analysis.Errors(analysis.CheckStructure(k)) {
		if d.Instr == pc {
			msgs = append(msgs, d.Msg)
		}
	}
	return msgs
}

// launchRefusal launches k, one CTA of one warp, and returns why Launch
// refused it before running it, or nil if it ran (whether or not the run
// faulted: a launch that ran returns its stats).
func launchRefusal(t *testing.T, dev *sim.Device, k *sass.Kernel) error {
	t.Helper()
	prog := sass.NewProgram()
	prog.AddKernel(k)
	prog.InternHandler("h")
	stats, err := dev.Launch(prog, k.Name, sim.LaunchParams{Grid: sim.D1(1), Block: sim.D1(32), Args: make([]uint64, len(k.Params))})
	if stats == nil && err == nil {
		t.Fatal("Launch returned neither stats nor an error")
	}
	if stats != nil {
		return nil
	}
	return err
}

// TestVerifyAgreesWithLaunch: analysis.CheckStructure reports an error at
// an instruction exactly when Launch refuses its kernel before running it,
// for every opcode number, reserved ones included, as agreementBase builds
// it and with each malformed variant (malformedVariants), and the launch's
// error carries Verify's first message there: both judge an instruction by
// sass.Kernel.CheckInstr. The kernel is the instruction and EXIT, with
// every register allocated, so the allocation rule (Verify only) never
// fires.
func TestVerifyAgreesWithLaunch(t *testing.T) {
	cfg := sim.MiniGPU()
	cfg.WatchdogWarpInstrs = 1 << 12
	dev := sim.NewDevice(cfg)
	exit := sass.New(sass.OpEXIT, nil, nil)
	for op := sass.Opcode(0); int(op) < sass.NumOpcodes(); op++ {
		base := agreementBase(t, op)
		vs := append(malformedVariants(base), operandVariant{"base", base})
		for _, v := range vs {
			k := &sass.Kernel{Name: "k", NumRegs: sass.NumGPR, Instrs: []sass.Instruction{v.in, exit}}
			verify := structuralErrors(k, 0)
			launch := launchRefusal(t, dev, k)
			switch {
			case len(verify) == 0 && launch != nil:
				t.Errorf("%s (%s): Verify accepts it, Launch refuses it: %v", v.in.String(), v.name, launch)
			case len(verify) > 0 && launch == nil:
				t.Errorf("%s (%s): Verify refuses it (%s), Launch runs it", v.in.String(), v.name, strings.Join(verify, "; "))
			case launch != nil && !strings.Contains(launch.Error(), "pc=0: "+verify[0]):
				t.Errorf("%s (%s): Launch refuses it with %q, Verify with %q", v.in.String(), v.name, launch, verify)
			}
		}
	}
}

// TestAllocationRuleIsVerifyOnly: IADD R10, R3, 1 in a kernel of 8
// registers is refused by Verify, which certifies ptxas's register
// allocation, and run by Launch, which gives every thread at least 16
// registers: the allocation rule is no operand rule.
func TestAllocationRuleIsVerifyOnly(t *testing.T) {
	k := &sass.Kernel{Name: "k", NumRegs: 8, Instrs: []sass.Instruction{
		sass.New(sass.OpIADD, []sass.Operand{sass.R(10)}, []sass.Operand{sass.R(3), sass.Imm(1)}),
		sass.New(sass.OpEXIT, nil, nil),
	}}
	const want = "R10 exceeds the kernel's register allocation (NumRegs=8)"
	if msgs := structuralErrors(k, 0); len(msgs) != 1 || msgs[0] != want {
		t.Errorf("Verify reports %q, want %q", msgs, want)
	}
	if err := launchRefusal(t, sim.NewDevice(sim.MiniGPU()), k); err != nil {
		t.Errorf("Launch refuses it: %v", err)
	}
}

// TestKernelAdmissionAgrees extends TestVerifyAgreesWithLaunch from the
// instruction to the kernel: analysis.CheckStructure reports an error
// exactly when Launch refuses the kernel before running it, on every row
// but those marked verifyOnly, where Verify refuses a kernel that Launch
// runs, for the reason given. A JCAL to a symbol the program does not link
// is refused by neither: the launch fails it when it issues (the program
// it is linked into is the launch's, not the kernel's). A kernel's
// resource fields (sass.Kernel.CheckResources) are refused by both with
// one message, as a *sim.KernelError from the launch, before it sizes a
// constant bank or a stack from them.
func TestKernelAdmissionAgrees(t *testing.T) {
	cfg := sim.MiniGPU()
	cfg.WatchdogWarpInstrs = 1 << 12
	dev := sim.NewDevice(cfg)
	exit := sass.New(sass.OpEXIT, nil, nil)
	mov := sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)})
	bra := func(target int64) sass.Instruction {
		return sass.New(sass.OpBRA, nil, []sass.Operand{{Kind: sass.OpdLabel, Name: "l", Imm: target}})
	}
	kernel := func(numRegs int, ins ...sass.Instruction) *sass.Kernel {
		return &sass.Kernel{Name: "k", NumRegs: numRegs, Instrs: ins}
	}
	ldg64 := sass.Instruction{Guard: sass.Always, Op: sass.OpLDG, Mods: sass.Mods{Width: sass.W64},
		Dsts: []sass.Operand{sass.R(19)}, Srcs: []sass.Operand{sass.Mem(4, 0)}}
	iadd20 := sass.New(sass.OpIADD, []sass.Operand{sass.R(20)}, []sass.Operand{sass.R(3), sass.Imm(1)})
	stl := sass.Instruction{Guard: sass.Always, Op: sass.OpSTL, Srcs: []sass.Operand{sass.Mem(sass.RZ, 0), sass.R(0)}}
	params := func(ps ...sass.ParamDesc) *sass.Kernel {
		k := kernel(16, exit)
		k.Params = ps
		return k
	}
	local := func(bytes int) *sass.Kernel {
		k := kernel(16, stl, exit)
		k.LocalBytes = bytes
		return k
	}
	const limit = sass.ParamBase + sass.ParamBytes
	for _, c := range []struct {
		name       string
		k          *sass.Kernel
		verifyOnly string
	}{
		{"empty", kernel(16), "the launch judges instructions; with none, the first issue falls off the end"},
		{"no EXIT", kernel(16, mov, bra(0)), "the launch does not trace control flow; the watchdog stops a warp that never exits"},
		{"falls off the end", kernel(16, mov, exit.WithGuard(sass.PredGuard{Reg: 0})),
			"the launch does not trace control flow; a warp that reaches the end faults there"},
		{"branch past the end", kernel(16, bra(3), exit), ""},
		{"unresolved branch", kernel(16, bra(-1), exit), ""},
		{"JCAL to an unlinked symbol", kernel(16, sass.New(sass.OpJCAL, nil, []sass.Operand{sass.Sym("unlinked")}), exit), ""},
		{"LDG.64 R19 at NumRegs 20", kernel(20, ldg64, exit), ""},
		{"IADD R20 at NumRegs 0", kernel(0, iadd20, exit), ""},
		{"parameters at the ends of the space", params(
			sass.ParamDesc{Name: "a", Size: 4, Offset: sass.ParamBase},
			sass.ParamDesc{Name: "b", Size: 8, Offset: limit - 8}), ""},
		{"1-byte parameter", params(sass.ParamDesc{Name: "a", Size: 1, Offset: sass.ParamBase}), ""},
		{"parameter below ParamBase", params(sass.ParamDesc{Name: "a", Size: 4, Offset: sass.ParamBase - 4}), ""},
		{"misaligned 8-byte parameter", params(sass.ParamDesc{Name: "a", Size: 8, Offset: sass.ParamBase + 4}), ""},
		{"parameter past 4 KB", params(sass.ParamDesc{Name: "a", Size: 8, Offset: limit - 4}), ""},
		{"parameter near 2^32", params(sass.ParamDesc{Name: "a", Size: 4, Offset: 1<<32 - 4}), ""},
		{"LocalBytes at 512 KiB", local(sass.MaxLocalBytes), ""},
		{"LocalBytes at 4 MiB", local(4 << 20), ""},
		{"negative LocalBytes", local(-4), ""},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		verify := analysis.Errors(analysis.CheckStructure(c.k))
		launch := launchRefusal(t, dev, c.k)
		runtime.ReadMemStats(&after)
		var ke *sim.KernelError
		if len(verify) > 0 && verify[0].Instr < 0 && c.verifyOnly == "" {
			if !errors.As(launch, &ke) || !strings.Contains(launch.Error(), verify[0].Msg) {
				t.Errorf("%s: Verify refuses the kernel with %q, Launch with %v", c.name, verify[0].Msg, launch)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("%s: refused after allocating %d bytes", c.name, n)
			}
		}
		switch {
		case c.verifyOnly != "":
			if len(verify) == 0 || launch != nil {
				t.Errorf("%s: listed as refused by Verify only, but Verify reports %v and Launch refuses with %v", c.name, verify, launch)
			}
		case len(verify) == 0 && launch != nil:
			t.Errorf("%s: Verify accepts it, Launch refuses it: %v", c.name, launch)
		case len(verify) > 0 && launch == nil:
			t.Errorf("%s: Verify refuses it (%v), Launch runs it", c.name, verify)
		}
	}
}
