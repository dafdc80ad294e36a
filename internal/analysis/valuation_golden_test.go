package analysis_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// The valuation golden pins every answer the value lattice gives on the
// built-in suite: per kernel, one digest over every instruction's
// Uniformity, GuardFacts, PredAt of every predicate, RegValue of every GPR
// the kernel names and OperandValue of every source. testdata/
// valuation.golden was recorded from the per-instruction-snapshot
// implementation at the commit before it was deleted, so a pass means the
// block-entry-state + replay implementation reproduces it bit for bit.
// The digest reads values through exported queries only (symbol terms via
// SymCoeff over every symbol the kernel can mention), so this file did not
// change with the representation. Regenerate (only for an intended lattice
// change) with `go test ./internal/analysis -run ValuationGolden -update`.

// valuePrograms are the programs the value profiler's instrumentation is
// recorded on (the benchmark's choice: it alone triples the code size).
var valuePrograms = map[string]bool{"parboil.histo": true, "rodinia.b+tree": true, "rodinia.nn": true}

// goldenVariant is one instrumentation state of a compiled workload.
type goldenVariant struct {
	name string
	opts *sassi.Options // nil: uninstrumented
}

func goldenVariants(program string) []goldenVariant {
	ctx := cuda.NewContext(sim.KeplerK10())
	branch := handlers.NewBranchProfiler(ctx).Options()
	memdiv := handlers.NewMemDivProfiler(ctx).Options()
	vs := []goldenVariant{{"base", nil}, {"branch", &branch}, {"memdiv", &memdiv}}
	if valuePrograms[program] {
		value := handlers.NewValueProfiler(ctx).Options()
		vs = append(vs, goldenVariant{"value", &value})
	}
	return vs
}

// compileVariant compiles program and applies the variant's instrumentation,
// with the verifier off: the golden is about the lattice, not the checks.
func compileVariant(t testing.TB, program string, v goldenVariant) *sass.Program {
	t.Helper()
	spec, ok := workloads.Get(program)
	if !ok {
		t.Fatalf("workload %s not registered", program)
	}
	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		t.Fatalf("%s: compile: %v", program, err)
	}
	if v.opts != nil {
		opts := *v.opts
		opts.Verify = analysis.VerifyOff
		if err := sassi.Instrument(prog, opts); err != nil {
			t.Fatalf("%s: instrument %s: %v", program, v.name, err)
		}
	}
	return prog
}

// kernelNames collects what the digest enumerates: every GPR the kernel
// mentions (plus RZ) and every symbol a value in it can carry.
func kernelNames(k *sass.Kernel) (regs []uint8, syms []analysis.Sym) {
	seenReg := map[uint8]bool{sass.RZ: true}
	seenSym := map[analysis.Sym]bool{}
	visit := func(o sass.Operand) {
		switch o.Kind {
		case sass.OpdReg, sass.OpdMem:
			seenReg[o.Reg] = true
		case sass.OpdCMem:
			seenSym[analysis.Sym{Kind: analysis.SymCMem, Bank: o.Bank, Off: o.Imm}] = true
		case sass.OpdSReg:
			seenSym[analysis.Sym{Kind: analysis.SymSReg, SR: o.SR}] = true
		}
	}
	for i := range k.Instrs {
		in := &k.Instrs[i]
		for _, o := range in.Dsts {
			visit(o)
		}
		for _, o := range in.Srcs {
			visit(o)
		}
		for _, r := range in.GPRDsts() {
			seenReg[r] = true
		}
	}
	for r := range seenReg {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	for s := range seenSym {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool {
		a, b := syms[i], syms[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		if a.Off != b.Off {
			return a.Off < b.Off
		}
		return a.SR < b.SR
	})
	return regs, syms
}

// answerBuf serializes lattice answers canonically.
type answerBuf struct {
	b    []byte
	syms []analysis.Sym
}

func (a *answerBuf) bit(v bool) {
	if v {
		a.b = append(a.b, 1)
	} else {
		a.b = append(a.b, 0)
	}
}

func (a *answerBuf) value(v analysis.Value) {
	a.bit(v.Known)
	a.bit(v.Uniform)
	if !v.Known {
		return
	}
	a.b = binary.AppendVarint(a.b, v.Const)
	for _, c := range v.Tid {
		a.b = binary.AppendVarint(a.b, c)
	}
	for _, s := range a.syms {
		a.b = binary.AppendVarint(a.b, v.SymCoeff(s))
	}
}

func (a *answerBuf) pred(f analysis.PredFacts) {
	a.bit(f.Uniform)
	a.bit(f.TidDep)
	a.bit(f.EqZero != nil)
	if f.EqZero != nil {
		a.value(*f.EqZero)
	}
}

// instrAnswers appends every query answer at instruction idx.
func (a *answerBuf) instrAnswers(v *analysis.Valuation, k *sass.Kernel, idx int, regs []uint8) {
	u := v.Uniformity(idx)
	a.bit(u.GuardUniform)
	a.bit(u.SrcsUniform)
	a.pred(v.GuardFacts(idx))
	for p := 0; p <= sass.NumPred; p++ {
		a.pred(v.PredAt(idx, uint8(p)))
	}
	for _, r := range regs {
		a.value(v.RegValue(idx, r))
	}
	for _, o := range k.Instrs[idx].Srcs {
		a.value(v.OperandValue(idx, o))
	}
}

// kernelDigest hashes every answer of the kernel, asked in the given
// instruction order but serialized in ascending order, so any query order
// that answers correctly yields the same digest.
func kernelDigest(t testing.TB, k *sass.Kernel, order []int) uint64 {
	t.Helper()
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatalf("kernel %s: %v", k.Name, err)
	}
	v := analysis.AnalyzeValues(cfg)
	regs, syms := kernelNames(k)
	per := make([][]byte, len(k.Instrs))
	for _, idx := range order {
		a := answerBuf{syms: syms}
		a.instrAnswers(v, k, idx, regs)
		per[idx] = a.b
	}
	d := fnv.New64a()
	for _, b := range per {
		d.Write(b)
	}
	return d.Sum64()
}

func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestValuationQueryOrder: a Valuation replays from wherever the previous
// query stopped, so every answer must come out the same whether the
// instructions are asked in ascending order (what the golden records),
// descending order (every query restarts its block) or a seeded shuffle
// (a mix of restarts and forward replays, across blocks).
func TestValuationQueryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				n := len(k.Instrs)
				want := kernelDigest(t, k, ascending(n))
				desc := ascending(n)
				slices.Reverse(desc)
				if got := kernelDigest(t, k, desc); got != want {
					t.Errorf("%s %s %s: descending queries digest %016x, ascending %016x", name, v.name, k.Name, got, want)
				}
				shuffled := ascending(n)
				rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				if got := kernelDigest(t, k, shuffled); got != want {
					t.Errorf("%s %s %s: shuffled queries digest %016x, ascending %016x", name, v.name, k.Name, got, want)
				}
			}
		}
	}
}

func TestValuationGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name) {
			for _, k := range compileVariant(t, name, v).Kernels {
				fmt.Fprintf(&b, "%s %s %s instrs=%d digest=%016x\n", name, v.name, k.Name,
					len(k.Instrs), kernelDigest(t, k, ascending(len(k.Instrs))))
			}
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "valuation.golden")
	if *analysis.UpdateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analysis -run ValuationGolden -update` to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("valuation golden has %d kernels, this run %d", len(wl)-1, len(gl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("lattice answers changed:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}
