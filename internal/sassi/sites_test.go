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

// emittedSites counts the sites among the injected instructions of
// out[from:to]: each starts by lowering the stack pointer and ends by
// raising it again.
func emittedSites(t *testing.T, out []sass.Instruction, from, to int) int {
	t.Helper()
	sites, open := 0, false
	for i := from; i < to; i++ {
		in := &out[i]
		if !in.Injected {
			t.Fatalf("instruction %d between two originals is not marked injected", i)
		}
		if in.Op != sass.OpIADD || len(in.Dsts) != 1 || in.Dsts[0] != sass.R(sass.SP) {
			continue
		}
		if open {
			sites++
		}
		open = !open
	}
	if open {
		t.Fatalf("a site between %d and %d never releases its frame", from, to)
	}
	return sites
}

// TestOriginalPositions: for every workload × tool, the remap table
// instrumentKernel returns places every original instruction where the
// instrumented stream has it, everything between two originals is
// injected, and the sites found in the stream (frame allocate … frame
// release) are the sites reported.
func TestOriginalPositions(t *testing.T) {
	for tool, opts := range toolOptions() {
		opts.Verify = analysis.VerifyOff
		for _, spec := range workloads.All() {
			prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
			if err != nil {
				t.Fatal(err)
			}
			for ki, k := range prog.Kernels {
				orig := k.Clone()
				sites, origAt, err := sassi.InstrumentKernel(prog, k, ki, &opts, 0)
				what := fmt.Sprintf("%s/%s/%s", spec.Name, tool, k.Name)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if len(origAt) != len(orig.Instrs) {
					t.Fatalf("%s: %d positions for %d instructions", what, len(origAt), len(orig.Instrs))
				}
				seen, from := 0, 0
				for i, want := range orig.Instrs {
					if origAt[i] < from || origAt[i] >= len(k.Instrs) {
						t.Fatalf("%s: origAt[%d]=%d is out of order or past the stream", what, i, origAt[i])
					}
					got := &k.Instrs[origAt[i]]
					if got.Injected || got.Op != want.Op || got.Guard != want.Guard || got.Mods != want.Mods ||
						len(got.Dsts) != len(want.Dsts) || len(got.Srcs) != len(want.Srcs) {
						t.Fatalf("%s: origAt[%d]=%d holds %v, not the original %v", what, i, origAt[i], got, &want)
					}
					seen += emittedSites(t, k.Instrs, from, origAt[i])
					from = origAt[i] + 1
				}
				seen += emittedSites(t, k.Instrs, from, len(k.Instrs))
				if seen != int(sites) {
					t.Errorf("%s: %d sites reported, %d found in the stream", what, sites, seen)
				}
			}
		}
	}
}

// TestSiteShapes drives the emitter over the address forms and guards the
// suite may not contain — R3-based addresses (the spill-slot reload), .E
// pairs whose low or high half is R3, RZ bases, memory instructions without
// a reference, local and shared windows, guarded instructions and wide
// register lists — under every What and two live sets. Counting with no
// buffers must give what writing into exact buffers gives; into short
// buffers the emitter counts on without writing past them or growing them;
// and every written site must pass the instrumented-program check.
func TestSiteShapes(t *testing.T) {
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
	// use keeps these registers live past the instrumented instruction.
	use := []sass.Operand{sass.Mem(sass.RZ, 0)}
	for _, r := range []uint8{0, 1, 2, 5, 9, 15, 16, 40} {
		use = append(use, sass.R(r))
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
			for li, tail := range [][]sass.Instruction{nil, {sass.New(sass.OpSTG, nil, use)}} {
				k := &sass.Kernel{
					Name: "site", NumRegs: 64, NumPreds: 4, Labels: map[string]int{"l": 0},
					Instrs: append(append([]sass.Instruction{in}, tail...), sass.New(sass.OpEXIT, nil, nil)),
				}
				desc := fmt.Sprintf("%s (pass %s, live set %d)", name, wname, li)
				n, narena, _, _, err := sassi.EmitSite(k, what, nil, nil)
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				out, ops := make([]sass.Instruction, n), make([]sass.Operand, narena)
				if n2, narena2, _, _, _ := sassi.EmitSite(k, what, out, ops); n2 != n || narena2 != narena {
					t.Errorf("%s: counted %d instructions (%d arena operands), wrote %d (%d)", desc, n, narena, n2, narena2)
				}
				// Every slot written, and the arena's share of the written
				// operands is the share counted.
				inArena := 0
				for j := range out {
					if !out[j].Injected {
						t.Fatalf("%s: instruction %d of %d not written", desc, j, n)
					}
					for _, l := range [][]sass.Operand{out[j].Dsts, out[j].Srcs} {
						if len(l) > 0 && narena > 0 && uintptr(unsafe.Pointer(&l[0])) >= uintptr(unsafe.Pointer(&ops[0])) &&
							uintptr(unsafe.Pointer(&l[0])) <= uintptr(unsafe.Pointer(&ops[narena-1])) {
							inArena += len(l)
						}
					}
				}
				if inArena != narena {
					t.Errorf("%s: written lists hold %d arena operands, %d counted", desc, inArena, narena)
				}
				// Into buffers too small for it, the emitter counts on
				// without writing past them or growing them. Every site
				// has parameter-field immediates, so a third of its arena
				// overflows too.
				outBuf, opsBuf := make([]sass.Instruction, n), make([]sass.Operand, narena)
				short, shortOps := outBuf[:n/2:n/2], opsBuf[:narena/3:narena/3]
				n3, narena3, outAfter, opsAfter, _ := sassi.EmitSite(k, what, short, shortOps)
				if n3 != n || narena3 != narena || len(outAfter) != n/2 || cap(outAfter) != n/2 || &outAfter[0] != &outBuf[0] ||
					len(opsAfter) != narena/3 || cap(opsAfter) != narena/3 || &opsAfter[0] != &opsBuf[0] {
					t.Errorf("%s into short buffers: counted %d (%d), buffers now %d/%d (%d/%d), want %d (%d) and %d/%d (%d/%d)",
						desc, n3, narena3, len(outAfter), cap(outAfter), len(opsAfter), cap(opsAfter),
						n, narena, n/2, n/2, narena/3, narena/3)
				}
				for j := n / 2; j < n; j++ {
					if o := &outBuf[j]; o.Injected || o.Op != 0 || o.Dsts != nil || o.Srcs != nil {
						t.Fatalf("%s: instruction slot %d past a %d-slot buffer written", desc, j, n/2)
					}
				}
				for j := narena / 3; j < narena; j++ {
					if opsBuf[j] != (sass.Operand{}) {
						t.Fatalf("%s: arena slot %d past a %d-slot arena written", desc, j, narena/3)
					}
				}
				verifySite(t, desc, k, out)
			}
		}
	}
}

// verifySite checks the site written before instruction 0 of k, as
// Instrument would place it, with analysis.VerifyInstrumentedProgram.
func verifySite(t *testing.T, what string, k *sass.Kernel, site []sass.Instruction) {
	t.Helper()
	inst := &sass.Kernel{
		Name: k.Name, NumRegs: max(k.NumRegs, sassi.HandlerMaxRegs), NumPreds: k.NumPreds,
		LocalBytes: k.LocalBytes - int(site[0].Srcs[1].Imm), // the frame the site allocates
		Labels:     map[string]int{"l": 0},
		Instrs:     append(append([]sass.Instruction(nil), site...), k.Instrs...),
	}
	origPos := make([]int, len(k.Instrs))
	for i := range origPos {
		origPos[i] = len(site) + i
	}
	orig, instrumented := sass.NewProgram(), sass.NewProgram()
	orig.AddKernel(k)
	instrumented.AddKernel(inst)
	diags := analysis.VerifyInstrumentedProgram(orig, instrumented, sassi.Spec(), map[string][]int{k.Name: origPos})
	if analysis.HasErrors(diags) {
		t.Errorf("%s: the written site fails the instrumented-program check: %v", what, diags)
	}
}

// TestPlanMismatchIsError: the one way to make the writing pass disagree
// with the counting pass from outside is a Select callback that edits an
// instruction already counted. Instrument must return a positioned *Error,
// not panic and not quietly resize: at the instruction the stream no longer
// reaches where it was placed (a guarded site is one instruction longer),
// or at the kernel's end when only the arena share changed (a memory site
// that gains an .E address keeps its length but moves two instructions'
// operands into the arena).
func TestPlanMismatchIsError(t *testing.T) {
	for _, c := range []struct {
		name string
		what sassi.What
		edit func(in *sass.Instruction)
		site int
	}{
		{"guard", 0, func(in *sass.Instruction) { in.Guard = sass.PredGuard{Reg: 0} }, 0},
		{"address form", sassi.PassMemoryInfo, func(in *sass.Instruction) {
			in.Srcs = []sass.Operand{sass.Mem(4, 16)}
			in.Mods.E = true
		}, -1},
	} {
		k := &sass.Kernel{
			Name: "k", NumRegs: 8, NumPreds: 2,
			Instrs: []sass.Instruction{
				sass.New(sass.OpLDG, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(4)}),
				sass.New(sass.OpEXIT, nil, nil),
			},
		}
		_, err := instrumentOne(t, k, sassi.Options{
			Where: sassi.BeforeAll, What: c.what, BeforeHandler: "h", Verify: analysis.VerifyOff,
			Select: func(k *sass.Kernel, i int, _ *sass.Instruction) bool {
				if i == 1 {
					c.edit(&k.Instrs[0])
				}
				return true
			},
		})
		var serr *sassi.Error
		if !errors.As(err, &serr) {
			t.Fatalf("%s: Instrument returned %v, want a *sassi.Error", c.name, err)
		}
		if serr.Kernel != "k" || serr.Site != c.site {
			t.Errorf("%s: error positioned at kernel %q site %d, want k site %d: %v", c.name, serr.Kernel, serr.Site, c.site, err)
		}
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
