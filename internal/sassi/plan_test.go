package sassi_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// toolOptions are the instrumentation descriptors of every named tool and
// of the error-injection profiler.
func toolOptions() map[string]sassi.Options {
	ctx := cuda.NewContext(sim.KeplerK10())
	opts := map[string]sassi.Options{"errorinj": handlers.NewInjProfiler(ctx, 1).Options()}
	for _, t := range handlers.Tools() {
		opts[t.Name] = t.New(ctx).Options()
	}
	return opts
}

// emittedSites splits the injected instructions of out[from:to] into sites:
// each starts by lowering the stack pointer and ends by raising it again.
func emittedSites(t *testing.T, out []sass.Instruction, from, to int) []int {
	t.Helper()
	var lens []int
	start := -1
	for i := from; i < to; i++ {
		in := &out[i]
		if !in.Injected {
			t.Fatalf("instruction %d between two originals is not marked injected", i)
		}
		if in.Op != sass.OpIADD || len(in.Dsts) != 1 || in.Dsts[0] != sass.R(sass.SP) {
			continue
		}
		if start < 0 {
			start = i
		} else {
			lens = append(lens, i+1-start)
			start = -1
		}
	}
	if start >= 0 {
		t.Fatalf("site opened at %d never releases its frame", start)
	}
	return lens
}

// TestPlannedSiteLengths: for every site of every workload × tool, the
// length the plan pass computed is the length the emitter produced. The
// emitted lengths are read back from the instrumented stream (frame
// allocate … frame release), the planned ones from the plan of the same
// (instruction, live set); the remap table instrumentKernel returns must
// place every original instruction where the stream has it.
func TestPlannedSiteLengths(t *testing.T) {
	for tool, opts := range toolOptions() {
		opts.Verify = analysis.VerifyOff
		for _, spec := range workloads.All() {
			prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
			if err != nil {
				t.Fatal(err)
			}
			for ki, k := range prog.Kernels {
				orig := k.Clone()
				cfg, err := sass.BuildCFG(orig)
				if err != nil {
					t.Fatal(err)
				}
				li := analysis.Liveness(cfg)
				sites, origAt, err := sassi.InstrumentKernel(prog, k, ki, &opts, 0)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", spec.Name, tool, k.Name, err)
				}
				what := fmt.Sprintf("%s/%s/%s", spec.Name, tool, k.Name)
				seen := 0
				for i := range orig.Instrs {
					if k.Instrs[origAt[i]].Injected || k.Instrs[origAt[i]].Op != orig.Instrs[i].Op {
						t.Fatalf("%s: origAt[%d]=%d is not the original instruction", what, i, origAt[i])
					}
					// Each tool injects either before or after, so the
					// injected run before i (after i) is i's own site.
					from, to, live := 0, origAt[i], li.LiveIn[i]
					if i > 0 {
						from = origAt[i-1] + 1
					}
					if opts.AfterHandler != "" {
						from, to, live = origAt[i]+1, len(k.Instrs), sass.RegSet{}
						if i+1 < len(orig.Instrs) {
							to, live = origAt[i+1], li.LiveIn[i+1]
						}
					}
					for _, got := range emittedSites(t, k.Instrs, from, to) {
						planned, _, _, err := sassi.SiteLengths(opts, &orig.Instrs[i], live, -1, -1)
						if err != nil {
							t.Fatalf("%s@%d: %v", what, i, err)
						}
						if planned[0] != got {
							t.Errorf("%s@%d: planned %d instructions, stream has %d", what, i, planned[0], got)
						}
						seen++
					}
				}
				if seen != int(sites) {
					t.Errorf("%s: %d sites reported, %d found in the stream", what, sites, seen)
				}
			}
		}
	}
}

// TestPlannedSiteShapes drives plan and emitter over the address forms and
// guards the suite may not contain: R3-based addresses (the spill-slot
// reload), .E pairs whose low or high half is R3, RZ bases, memory
// instructions without a reference, local and shared windows, guarded
// instructions, and wide register lists.
func TestPlannedSiteShapes(t *testing.T) {
	mem := func(op sass.Opcode, base uint8, e bool) sass.Instruction {
		in := sass.New(op, []sass.Operand{sass.R(8)}, []sass.Operand{sass.Mem(base, 16)})
		if op.IsMemWrite() {
			in = sass.New(op, nil, []sass.Operand{sass.Mem(base, 16), sass.R(8)})
		}
		in.Mods.E = e
		return in
	}
	wide := mem(sass.OpLDG, 4, true)
	wide.Mods.Width = sass.W128
	guard := sass.PredGuard{Reg: 2, Neg: true}
	var live sass.RegSet
	for _, r := range []uint8{0, 1, 2, 5, 9, 15, 16, 40} {
		live.Add(r)
	}
	instrs := map[string]sass.Instruction{
		"ldg":            mem(sass.OpLDG, 4, false),
		"ldg.E":          mem(sass.OpLDG, 4, true),
		"ldg.E R3 low":   mem(sass.OpLDG, 3, true),
		"ldg.E R3 high":  mem(sass.OpLDG, 2, true),
		"ldg.E RZ":       mem(sass.OpLDG, sass.RZ, true),
		"ldg R3":         mem(sass.OpLDG, 3, false),
		"ldg RZ":         mem(sass.OpLDG, sass.RZ, false),
		"ldl":            mem(sass.OpLDL, 4, false),
		"stl R3":         mem(sass.OpSTL, 3, false),
		"lds":            mem(sass.OpLDS, 6, false),
		"sts R3":         mem(sass.OpSTS, 3, false),
		"ldc":            mem(sass.OpLDC, 3, false),
		"no reference":   sass.New(sass.OpLDG, []sass.Operand{sass.R(8)}, []sass.Operand{sass.R(4)}),
		"guarded stg.E":  mem(sass.OpSTG, 3, true).WithGuard(guard),
		"wide":           wide,
		"branch":         sass.New(sass.OpBRA, nil, []sass.Operand{{Kind: sass.OpdLabel, Name: "l", Imm: 0}}).WithGuard(guard),
		"iadd":           sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(3), sass.R(4)}),
		"guarded iadd":   sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(3), sass.R(4)}).WithGuard(guard),
		"exit":           sass.New(sass.OpEXIT, nil, nil),
		"guarded @!PT":   sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}).WithGuard(sass.PredGuard{Reg: sass.PT, Neg: true}),
		"many registers": sass.New(sass.OpSTG, nil, []sass.Operand{sass.Mem(4, 0), sass.R(8), sass.R(12), sass.R(16), sass.R(20), sass.R(24), sass.R(28), sass.R(32), sass.R(36), sass.R(40)}),
	}
	whats := map[string]sassi.What{
		"none": 0, "mem": sassi.PassMemoryInfo, "branch": sassi.PassCondBranchInfo,
		"reg": sassi.PassRegisterInfo, "all": sassi.PassMemoryInfo | sassi.PassCondBranchInfo | sassi.PassRegisterInfo,
	}
	for name, in := range instrs {
		for wname, what := range whats {
			for li, lv := range []sass.RegSet{{}, live} {
				opts := sassi.Options{What: what, BeforeHandler: "h"}
				planned, emitted, _, err := sassi.SiteLengths(opts, &in, lv, -1, -1)
				if err != nil || planned != emitted {
					t.Errorf("%s (pass %s, live set %d): planned %v, emitted %v, err %v", name, wname, li, planned, emitted, err)
				}
				// Into buffers too small for it, the emitter counts on
				// without writing past them or growing them. Every site
				// has parameter-field immediates, so a third of its
				// arena operands overflows the arena too.
				planned, emitted, outLen, err := sassi.SiteLengths(opts, &in, lv, planned[0]/2, planned[2]/3)
				if err != nil || planned != emitted || outLen != planned[0]/2 || emitted[2] <= planned[2]/3 {
					t.Errorf("%s (pass %s) into short buffers: planned %v, emitted %v, buffer %d, err %v", name, wname, planned, emitted, outLen, err)
				}
			}
		}
	}
}

// TestPlanMismatchIsError: the one way to make the emitter disagree with its
// plan from outside is a Select callback that edits an instruction the plan
// pass has already sized. Instrument must return a positioned *Error, not
// panic and not quietly resize.
func TestPlanMismatchIsError(t *testing.T) {
	k := &sass.Kernel{
		Name: "k", NumRegs: 8, NumPreds: 2,
		Instrs: []sass.Instruction{
			sass.New(sass.OpMOV32, []sass.Operand{sass.R(2)}, []sass.Operand{sass.Imm(1)}),
			sass.New(sass.OpEXIT, nil, nil),
		},
	}
	_, err := instrumentOne(t, k, sassi.Options{
		Where: sassi.BeforeAll, BeforeHandler: "h", Verify: analysis.VerifyOff,
		Select: func(k *sass.Kernel, i int, _ *sass.Instruction) bool {
			if i == 1 {
				k.Instrs[0].Guard = sass.PredGuard{Reg: 0} // a guarded site is one instruction longer
			}
			return true
		},
	})
	var serr *sassi.Error
	if !errors.As(err, &serr) {
		t.Fatalf("Instrument returned %v, want a *sassi.Error", err)
	}
	if serr.Kernel != "k" || serr.Site != 0 {
		t.Errorf("error positioned at kernel %q site %d, want k site 0: %v", serr.Kernel, serr.Site, err)
	}
}

// TestInstrumentAllocationCeiling: instrumenting allocates what it emits,
// and an operand list that many injected instructions repeat is emitted
// once. The output is stated as the instruction stream plus each distinct
// injected operand list (by content, across the program) counted once, so
// it holds on any host: the value tool on parboil.sgemm may allocate 1.25×
// that plus a constant for the analyses of the input. The factor leaves
// room for the per-site lists: every MOV32I of a parameter field has its
// own, though many hold the same immediate. Against a ceiling of 480 128 B
// the injector allocates 423 840 B; one that copies every list of every
// site into its arena allocated 694 112 B.
func TestInstrumentAllocationCeiling(t *testing.T) {
	spec, _ := workloads.Get("parboil.sgemm")
	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		t.Fatal(err)
	}
	opts := toolOptions()["value"]
	opts.Verify = analysis.VerifyOff
	inputInstrs := 0
	for _, k := range prog.Kernels {
		inputInstrs += len(k.Instrs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	output := uintptr(0)
	lists := map[string]bool{}
	for _, k := range prog.Kernels {
		output += uintptr(len(k.Instrs)) * unsafe.Sizeof(sass.Instruction{})
		for i := range k.Instrs {
			in := &k.Instrs[i]
			if key := fmt.Sprint(in.Dsts, in.Srcs); in.Injected && !lists[key] {
				lists[key] = true
				output += uintptr(len(in.Dsts)+len(in.Srcs)) * unsafe.Sizeof(sass.Operand{})
			}
		}
	}
	// CFG, liveness and the two remap tables are linear in the input.
	ceiling := uint64(output)*125/100 + uint64(inputInstrs)*256 + 16<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("Instrument allocated %d bytes for %d bytes of output (ceiling %d)", got, output, ceiling)
	} else {
		t.Logf("Instrument allocated %d bytes for %d bytes of output (ceiling %d)", got, output, ceiling)
	}
}

// BenchmarkInstrument instruments parboil.sgemm under each case-study tool:
// the cost per Instrument call, its bytes and its allocations. Each
// iteration instruments a fresh copy of the compiled program; the copy is
// made with the timer stopped.
func BenchmarkInstrument(b *testing.B) {
	spec, _ := workloads.Get("parboil.sgemm")
	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		b.Fatal(err)
	}
	tools := toolOptions()
	for _, tool := range []string{"branch", "memdiv", "value"} {
		opts := tools[tool]
		opts.Verify = analysis.VerifyOff
		b.Run(tool, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				p := prog.Clone()
				b.StartTimer()
				if err := sassi.Instrument(p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
