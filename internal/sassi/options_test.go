package sassi_test

import (
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
)

// buildMixed compiles a kernel exercising every instruction class: memory
// ops, a conditional branch, arithmetic, an atomic.
func buildMixed(t *testing.T) *sass.Program {
	t.Helper()
	b := ptx.NewKernel("mixed")
	p := b.ParamU64("p")
	i := b.GlobalTidX()
	v := b.LdGlobalU32(b.Index(p, i, 2), 0)
	c := b.SetpI(sass.CmpLT, v, 10)
	b.IfElse(c, func() {
		b.AtomAddGlobal(p, 0, b.ImmU32(1))
	}, func() {
		b.StGlobalU32(b.Index(p, i, 2), 4, b.Add(v, b.ImmU32(1)))
	})
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// countSites counts JCAL injections after instrumenting with opts.
func countSites(t *testing.T, opts sassi.Options) (jcals int, perClass map[sass.Opcode]int) {
	t.Helper()
	prog := buildMixed(t)
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatal(err)
	}
	k := prog.Kernels[0]
	perClass = map[sass.Opcode]int{}
	for i := range k.Instrs {
		if k.Instrs[i].Injected && k.Instrs[i].Op == sass.OpJCAL {
			jcals++
			// The original instruction follows the restore sequence; find
			// the next non-injected instruction.
			for j := i + 1; j < len(k.Instrs); j++ {
				if !k.Instrs[j].Injected {
					perClass[k.Instrs[j].Op]++
					break
				}
			}
		}
	}
	return jcals, perClass
}

func TestWhereBeforeAll(t *testing.T) {
	prog := buildMixed(t)
	orig := len(prog.Kernels[0].Instrs)
	jcals, _ := countSites(t, sassi.Options{Where: sassi.BeforeAll, BeforeHandler: "h"})
	if jcals != orig {
		t.Errorf("BeforeAll sites = %d, want %d (every original instruction)", jcals, orig)
	}
}

func TestWhereBeforeMem(t *testing.T) {
	jcals, classes := countSites(t, sassi.Options{Where: sassi.BeforeMem, BeforeHandler: "h"})
	prog := buildMixed(t)
	memOps := 0
	for i := range prog.Kernels[0].Instrs {
		if prog.Kernels[0].Instrs[i].Op.IsMem() {
			memOps++
		}
	}
	if jcals != memOps {
		t.Errorf("BeforeMem sites = %d, want %d", jcals, memOps)
	}
	for op := range classes {
		if !op.IsMem() {
			t.Errorf("BeforeMem instrumented non-memory op %s", op)
		}
	}
}

func TestWhereBeforeCondBranches(t *testing.T) {
	jcals, classes := countSites(t, sassi.Options{Where: sassi.BeforeCondBranches, BeforeHandler: "h"})
	if jcals == 0 {
		t.Fatal("no conditional-branch sites found")
	}
	for op := range classes {
		if op != sass.OpBRA {
			t.Errorf("instrumented %s as a conditional branch", op)
		}
	}
}

func TestWhereKernelEntryAndExit(t *testing.T) {
	jcals, _ := countSites(t, sassi.Options{Where: sassi.KernelEntry, BeforeHandler: "h"})
	if jcals != 1 {
		t.Errorf("KernelEntry sites = %d, want 1", jcals)
	}
	jcals, classes := countSites(t, sassi.Options{Where: sassi.KernelExit, BeforeHandler: "h"})
	if jcals == 0 {
		t.Error("no exit sites")
	}
	for op := range classes {
		if op != sass.OpEXIT {
			t.Errorf("KernelExit instrumented %s", op)
		}
	}
}

func TestWhereBBHeaders(t *testing.T) {
	prog := buildMixed(t)
	cfg, err := sass.BuildCFG(prog.Kernels[0])
	if err != nil {
		t.Fatal(err)
	}
	jcals, _ := countSites(t, sassi.Options{Where: sassi.BBHeaders, BeforeHandler: "h"})
	if jcals != len(cfg.Blocks) {
		t.Errorf("BBHeaders sites = %d, want %d blocks", jcals, len(cfg.Blocks))
	}
}

func TestWhereAfterRegWritesExcludesControl(t *testing.T) {
	jcals, _ := countSites(t, sassi.Options{Where: sassi.AfterRegWrites, AfterHandler: "h"})
	if jcals == 0 {
		t.Fatal("no after-write sites")
	}
	// Verify no JCAL directly follows a control transfer's site: check
	// original control instrs have no injected code after them.
	prog := buildMixed(t)
	if err := sassi.Instrument(prog, sassi.Options{Where: sassi.AfterAll, AfterHandler: "h"}); err != nil {
		t.Fatal(err)
	}
	k := prog.Kernels[0]
	for i := 0; i < len(k.Instrs)-1; i++ {
		if !k.Instrs[i].Injected && k.Instrs[i].Op.IsControlXfer() {
			if k.Instrs[i+1].Injected && k.Instrs[i+1].Op == sass.OpIADD {
				// Frame allocation right after a branch would mean an
				// illegal after-site on a control transfer.
				t.Errorf("after-injection on control transfer %s", k.Instrs[i].Op)
			}
		}
	}
}

func TestSelectFilter(t *testing.T) {
	calls := 0
	jcals, _ := countSites(t, sassi.Options{
		Where:         sassi.BeforeMem,
		BeforeHandler: "h",
		Select: func(k *sass.Kernel, idx int, in *sass.Instruction) bool {
			calls++
			return false
		},
	})
	if jcals != 0 {
		t.Errorf("Select=false still produced %d sites", jcals)
	}
	if calls == 0 {
		t.Error("Select never consulted")
	}
}

func TestInstrumentRequiresHandler(t *testing.T) {
	prog := buildMixed(t)
	if err := sassi.Instrument(prog, sassi.Options{Where: sassi.BeforeAll}); err == nil {
		t.Error("missing handler symbol accepted")
	}
}

func TestBranchTargetsRemapped(t *testing.T) {
	prog := buildMixed(t)
	k := prog.Kernels[0]
	// Record the original instruction at every branch target.
	type tgt struct{ branchIdx, targetIdx int }
	var targets []tgt
	for i := range k.Instrs {
		for _, s := range k.Instrs[i].Srcs {
			if s.Kind == sass.OpdLabel {
				targets = append(targets, tgt{i, int(s.Imm)})
			}
		}
	}
	origAt := map[int]sass.Opcode{}
	for _, tg := range targets {
		if tg.targetIdx < len(k.Instrs) {
			origAt[tg.targetIdx] = k.Instrs[tg.targetIdx].Op
		}
	}
	if err := sassi.Instrument(prog, sassi.Options{Where: sassi.BeforeMem, BeforeHandler: "h"}); err != nil {
		t.Fatal(err)
	}
	// After instrumentation, every label target must reach (after skipping
	// injected code) an original instruction with the same opcode.
	for i := range k.Instrs {
		for _, s := range k.Instrs[i].Srcs {
			if s.Kind != sass.OpdLabel {
				continue
			}
			j := int(s.Imm)
			for j < len(k.Instrs) && k.Instrs[j].Injected {
				j++
			}
			if j >= len(k.Instrs) {
				continue
			}
			// We can't easily match targets 1:1 after remap, but every
			// target must land on injected code or an original opcode that
			// appeared as some original target.
			found := false
			for _, op := range origAt {
				if op == k.Instrs[j].Op {
					found = true
				}
			}
			if !found {
				t.Errorf("branch at %d targets unexpected opcode %s", i, k.Instrs[j].Op)
			}
		}
	}
}
