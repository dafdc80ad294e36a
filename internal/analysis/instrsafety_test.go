package analysis_test

import (
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/workloads"
)

// instrumentedPair compiles a workload and instruments it heavily, keeping
// a pristine clone of the pre-instrumentation program for diffing.
func instrumentedPair(t *testing.T, workload string) (orig, inst *sass.Program) {
	t.Helper()
	spec, ok := workloads.Get(workload)
	if !ok {
		t.Fatalf("workload %q not registered", workload)
	}
	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		t.Fatal(err)
	}
	orig = sass.NewProgram()
	for _, k := range prog.Kernels {
		orig.AddKernel(k.Clone())
	}
	err = sassi.Instrument(prog, sassi.Options{
		Where:         sassi.BeforeAll | sassi.AfterMem,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "test_before",
		AfterHandler:  "test_after",
		Verify:        analysis.VerifyOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	return orig, prog
}

func cloneProgram(p *sass.Program) *sass.Program {
	c := sass.NewProgram()
	for _, k := range p.Kernels {
		c.AddKernel(k.Clone())
	}
	for sym := range p.Handlers {
		c.InternHandler(sym)
	}
	return c
}

func verify(orig, inst *sass.Program) []analysis.Diagnostic {
	// origPos nil: recover originals from the Injected flags (valid for a
	// single instrumentation pass, which is what instrumentedPair runs).
	return analysis.VerifyInstrumentedProgram(orig, inst, sassi.Spec(), nil)
}

func wantSafetyError(t *testing.T, diags []analysis.Diagnostic, substr string) {
	t.Helper()
	for _, d := range analysis.Errors(diags) {
		if strings.Contains(d.Msg, substr) {
			return
		}
	}
	t.Fatalf("no instr-safety error containing %q in %v", substr, diags)
}

func TestInstrumentedWorkloadVerifies(t *testing.T) {
	orig, inst := instrumentedPair(t, "demo.vecadd")
	if diags := verify(orig, inst); analysis.HasErrors(diags) {
		t.Fatalf("clean instrumentation rejected: %v", analysis.Errors(diags))
	}
}

func TestSafetyCatchesAlteredOriginal(t *testing.T) {
	orig, inst := instrumentedPair(t, "demo.vecadd")
	bad := cloneProgram(inst)
	k := bad.Kernels[0]
	for i := range k.Instrs {
		if !k.Instrs[i].Injected {
			k.Instrs[i].Guard = sass.PredGuard{Reg: 0, Neg: true}
			break
		}
	}
	wantSafetyError(t, verify(orig, bad), "original instruction")
}

func TestSafetyCatchesDroppedOriginal(t *testing.T) {
	orig, inst := instrumentedPair(t, "demo.vecadd")
	bad := cloneProgram(inst)
	k := bad.Kernels[0]
	for i := range k.Instrs {
		if !k.Instrs[i].Injected {
			// Disguise an original as injected code: the original sequence
			// is now one instruction short.
			k.Instrs[i].Injected = true
			break
		}
	}
	wantSafetyError(t, verify(orig, bad), "original instructions")
}

func TestSafetyCatchesUnbalancedFrame(t *testing.T) {
	orig, inst := instrumentedPair(t, "demo.vecadd")
	bad := cloneProgram(inst)
	k := bad.Kernels[0]
	// Grow a frame-release (IADD SP, SP, +imm) so the injected code raises
	// SP above its entry value.
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Injected && in.Op == sass.OpIADD &&
			len(in.Dsts) == 1 && in.Dsts[0].Kind == sass.OpdReg && in.Dsts[0].Reg == sass.SP &&
			len(in.Srcs) == 2 && in.Srcs[1].Kind == sass.OpdImm && in.Srcs[1].Imm > 0 {
			in.Srcs[1].Imm += 16
			break
		}
	}
	wantSafetyError(t, verify(orig, bad), "stack pointer")
}

func TestSafetyCatchesClobberedLiveRegister(t *testing.T) {
	orig, inst := instrumentedPair(t, "demo.vecadd")

	// Find a register the injector actually bothered to save: the saved
	// set at some site tells us it was live there.
	k := inst.Kernels[0]
	ok, _ := orig.Kernel(k.Name)
	cfg, err := sass.BuildCFG(ok)
	if err != nil {
		t.Fatal(err)
	}
	li := analysis.Liveness(cfg)

	// Retarget an injected restore (the LDL reloading a saved original
	// value back into its register) at a different, live register: that
	// clobbers the victim and leaves the saved register unrestored. The
	// restore to corrupt is the highest-frame-offset LDL of a gap — the
	// low offsets hold the predicate/CC snapshots, whose reload registers
	// are scratch.
	bad := cloneProgram(inst)
	bk := bad.Kernels[0]
	origSeen := 0
	corrupted := false
	var gapBest *sass.Instruction
	for i := 0; i <= len(bk.Instrs) && !corrupted; i++ {
		if i < len(bk.Instrs) && bk.Instrs[i].Injected {
			in := &bk.Instrs[i]
			if in.Op == sass.OpLDL && len(in.Dsts) == 1 && in.Dsts[0].Kind == sass.OpdReg &&
				origSeen < len(li.LiveIn) && li.LiveIn[origSeen].Has(in.Dsts[0].Reg) &&
				(gapBest == nil || in.Srcs[0].Imm > gapBest.Srcs[0].Imm) {
				gapBest = in
			}
			continue
		}
		// Gap ended: corrupt its last restore if the site had two live
		// registers to confuse.
		if gapBest != nil && origSeen < len(li.LiveIn) {
			r := gapBest.Dsts[0].Reg
			for _, victim := range li.LiveIn[origSeen].Regs() {
				if victim != r && victim != sass.SP && int(victim) < sassi.HandlerMaxRegs {
					gapBest.Dsts[0].Reg = victim
					corrupted = true
					break
				}
			}
		}
		gapBest = nil
		origSeen++
	}
	if !corrupted {
		t.Skip("no retargetable restore found")
	}
	diags := verify(orig, bad)
	if !analysis.HasErrors(diags) {
		t.Fatal("clobbered live register not detected")
	}
}

func TestSafetyCatchesNonDenseSiteIDs(t *testing.T) {
	orig, inst := instrumentedPair(t, "demo.vecadd")
	bad := cloneProgram(inst)
	k := bad.Kernels[0]
	// The site ID is an immediate MOV32 whose value is then stored at frame
	// offset SiteIDOffset; bumping one immediate far away leaves a gap.
	idOff := sassi.Spec().SiteIDOffset
	var lastImmInstr = map[uint8]int{}
	corrupted := false
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if !in.Injected {
			continue
		}
		if in.Op == sass.OpMOV32 && len(in.Dsts) == 1 && in.Dsts[0].Kind == sass.OpdReg &&
			len(in.Srcs) == 1 && in.Srcs[0].Kind == sass.OpdImm {
			lastImmInstr[in.Dsts[0].Reg] = i
			continue
		}
		if in.Op == sass.OpSTL && len(in.Srcs) >= 2 && in.Srcs[0].Kind == sass.OpdMem &&
			in.Srcs[0].Reg == sass.SP && in.Srcs[0].Imm == idOff && in.Srcs[1].Kind == sass.OpdReg {
			if mi, ok := lastImmInstr[in.Srcs[1].Reg]; ok {
				k.Instrs[mi].Srcs[0].Imm += 10000
				corrupted = true
				break
			}
		}
	}
	if !corrupted {
		t.Fatal("no site-ID store found to corrupt")
	}
	wantSafetyError(t, verify(orig, bad), "site ID")
}

func TestSafetyCatchesBrokenLabelRemap(t *testing.T) {
	// Needs a workload with branches, so labels exist to corrupt.
	orig, inst := instrumentedPair(t, "rodinia.bfs")
	bad := cloneProgram(inst)
	corrupted := false
	for _, k := range bad.Kernels {
		// Nudge an original's remapped label one instruction back, into the
		// injected code that precedes its landing position.
		for i := range k.Instrs {
			in := &k.Instrs[i]
			if in.Injected {
				continue
			}
			for s := range in.Srcs {
				if in.Srcs[s].Kind == sass.OpdLabel && in.Srcs[s].Imm > 0 {
					in.Srcs[s].Imm--
					corrupted = true
					break
				}
			}
			if corrupted {
				break
			}
		}
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Fatal("no resolved label found to corrupt")
	}
	wantSafetyError(t, verify(orig, bad), "remapped label")
}

func TestSafetyRejectsBadOrigPosTable(t *testing.T) {
	orig, inst := instrumentedPair(t, "demo.vecadd")
	ok := orig.Kernels[0]
	ik, _ := inst.Kernel(ok.Name)
	// A non-increasing table must be rejected outright.
	tbl := make([]int, len(ok.Instrs))
	for i := range tbl {
		tbl[i] = len(ik.Instrs) - 1 - i
	}
	diags, _ := analysis.VerifyInstrumentedKernel(ok, ik, sassi.Spec(), tbl)
	wantSafetyError(t, diags, "increasing sequence")
}
