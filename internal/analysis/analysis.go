// Package analysis is the static-analysis layer over compiled SASS: a
// reusable forward/backward dataflow framework (postdominators, definite
// assignment, block liveness), the affine value
// lattice, dependence DAGs, plus a verifier that every compiled and
// instrumented program passes through.
//
// The paper's core claim (§3.2, §9.4) is that a compiler-level pass knows
// the machine-code structure — CFG, exact register liveness, divergence
// stack, calling convention — that binary rewriters must guess at. This
// package turns that structural knowledge into checks: instead of an
// injection or register-allocation bug surfacing as a wrong simulation
// result many layers later, ptxas.Compile and sassi.Instrument fail fast
// with a positioned diagnostic.
//
// Verify runs one fixed list of checks, the same in every binary:
//
//   - structural: every instruction well formed by sass.Kernel.CheckInstr,
//     the one operand rule set ptxas and the launch apply too, so Verify
//     refuses an instruction exactly when the launch would; registers
//     within the kernel's allocation, a rule of Verify's alone (it
//     certifies ptxas's register allocation, and the launch gives every
//     thread at least 16 registers); branch/SSY targets in range, no
//     fall-through off the kernel end, unsupported opcodes, and (the
//     linkage check) every JCAL symbol in the program's handler table;
//   - divergence: SSY/SYNC (and CAL/RET) push/pop depth matched, typed,
//     and bounded on every control-flow path (control.go);
//   - round-trip: Encode→Decode of every instruction is the identity;
//   - def-assign: no GPR/predicate/CC read that is reachable-before-def
//     from kernel entry (warnings — inputs arrive via constant bank);
//   - cfi: legal target sets for CAL/RET and SSY/SYNC reconvergence
//     (cfi.go);
//   - schedule: a scheduler-reordered kernel is a topological order of
//     its original's dependence DAG (schedule.go, deps.go).
//
// Every one of them certifies what ptxas and SASSI emitted. Three more
// check classes lie outside Verify: instr-safety, which compares an
// instrumented kernel with its original (VerifyInstrumentedProgram, run
// by sassi.Instrument), and the concurrency checks barrier-divergence and
// shared-race (internal/analysis/concurrency), which lint the user's
// program and run only under sassi-lint, on the facts VerifyKernelFacts
// built. The divergence, cfi and barrier-divergence checks render their
// diagnostics from one walk of the warp's control stacks per kernel.
package analysis

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sassi/internal/sass"
)

// Severity grades a diagnostic.
type Severity uint8

// Severity levels. Errors fail verification; warnings are advisory.
const (
	Warning Severity = iota
	Error
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Check names, one per check class in the catalogue.
const (
	CheckStructural  = "structural"
	CheckDivergence  = "divergence"
	CheckDefAssign   = "def-assign"
	CheckRoundTrip   = "round-trip"
	CheckInstrSafety = "instr-safety"
	CheckCFI         = "cfi"
	CheckSchedule    = "schedule"
	// CheckBarrier and CheckSharedRace are internal/analysis/concurrency's,
	// outside Verify.
	CheckBarrier    = "barrier-divergence"
	CheckSharedRace = "shared-race"
)

// Diagnostic is one verifier finding, positioned at a kernel and (usually)
// an instruction.
type Diagnostic struct {
	Sev    Severity
	Check  string // check class, one of the Check* constants
	File   string // optional source file (set by sassi-lint)
	Kernel string
	Instr  int // instruction index within the kernel; -1 for kernel-level
	Msg    string
}

// String renders the diagnostic as
// "file: kernel@0x0018: error: divergence: message" with the instruction
// position shown as its byte offset (8 bytes per instruction, as the
// disassembly prints it). Kernel-level findings omit the offset.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.File != "" {
		b.WriteString(d.File)
		b.WriteString(": ")
	}
	b.WriteString(d.Kernel)
	if d.Instr >= 0 {
		fmt.Fprintf(&b, "@%04x", sass.InsOffset(d.Instr))
	}
	fmt.Fprintf(&b, ": %s: %s: %s", d.Sev, d.Check, d.Msg)
	return b.String()
}

// SortDiagnostics orders findings by kernel, instruction (PC), check
// name, severity (errors first), then message, for stable, deterministic
// output regardless of the order checks ran in.
func SortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		return a.Msg < b.Msg
	})
}

// Errors filters the error-severity findings.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Sev == Error {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether any finding is an error.
func HasErrors(diags []Diagnostic) bool { return len(Errors(diags)) > 0 }

// VerifyError wraps error-severity diagnostics as a Go error so that
// pipeline stages (ptxas.Compile, sassi.Instrument) can fail with
// positions attached. Callers unwrap with errors.As to recover the
// individual findings.
type VerifyError struct {
	Diags []Diagnostic
}

// Error summarizes the first finding and the total count.
func (e *VerifyError) Error() string {
	errs := Errors(e.Diags)
	if len(errs) == 0 {
		return "verifier failed with no error diagnostics"
	}
	if len(errs) == 1 {
		return errs[0].String()
	}
	return fmt.Sprintf("%s (and %d more errors)", errs[0].String(), len(errs)-1)
}

// VerifyMode gates the verifier post-passes in ptxas and sassi.
type VerifyMode uint8

// Verification modes. The zero value is VerifyAuto: on under `go test`
// (so every compiled and instrumented program in the test suite passes
// through the verifier), off in production binaries where the caller
// opts in explicitly.
const (
	VerifyAuto VerifyMode = iota
	VerifyOn
	VerifyOff
)

// Enabled resolves the mode to a decision.
func (m VerifyMode) Enabled() bool {
	switch m {
	case VerifyOn:
		return true
	case VerifyOff:
		return false
	default:
		return testing.Testing()
	}
}

// String names the mode (used in cache keys).
func (m VerifyMode) String() string {
	switch m {
	case VerifyOn:
		return "on"
	case VerifyOff:
		return "off"
	default:
		return "auto"
	}
}

// KernelFacts is what one verification derives about a kernel and hands
// to every check that needs more than the instructions: the CFG, with the
// walk of the warp's control stacks its SYNC edges come from, and, each
// computed on first use and kept, the postdominators, the value lattice's
// fixpoint and the guard facts
// the walk splits the warp by (control.go). A check takes each from its
// accessor — the valuation from Values, never a fresh analysis — so
// verifying a kernel (linting it for concurrency, building its dependence
// graph on the same facts) computes each once however many checks
// consult it. Like the Valuation it holds, a KernelFacts is for one
// goroutine.
type KernelFacts struct {
	CFG   *sass.CFG
	val   *Valuation
	guard *guardFacts
	pdom  []Bits
}

// NewKernelFacts wraps a CFG for callers that run a check, or build a
// dependence graph, outside VerifyKernelFacts.
func NewKernelFacts(cfg *sass.CFG) *KernelFacts { return &KernelFacts{CFG: cfg} }

// Values returns the value lattice's fixpoint over f.CFG, computed on the
// first call.
func (f *KernelFacts) Values() *Valuation {
	if f.val == nil {
		f.val = analyzeValues(f)
	}
	return f.val
}

// postDominators returns PostDominators(f.CFG), computed on the first call.
func (f *KernelFacts) postDominators() []Bits {
	if f.pdom == nil {
		f.pdom = PostDominators(f.CFG)
	}
	return f.pdom
}

// KnownChecks lists every check class a diagnostic can carry — the full
// Check* catalogue. Tools that accept a check filter (sassi-lint -checks)
// validate names against this list.
func KnownChecks() []string {
	out := []string{
		CheckStructural, CheckDivergence, CheckDefAssign,
		CheckRoundTrip, CheckInstrSafety,
		CheckBarrier, CheckSharedRace, CheckCFI, CheckSchedule,
	}
	sort.Strings(out)
	return out
}

// Verify runs every kernel-level check over the program plus the
// program-level linkage check (JCAL symbols resolved in the handler
// table), returning all findings sorted.
func Verify(prog *sass.Program) []Diagnostic {
	var diags []Diagnostic
	for _, k := range prog.Kernels {
		diags = append(diags, VerifyKernel(k)...)
		diags = append(diags, CheckLinkage(prog, k)...)
	}
	SortDiagnostics(diags)
	return diags
}

// VerifyKernel runs the structural, divergence, encoding round-trip,
// definite-assignment, cfi and schedule checks over one kernel. Deeper
// checks are skipped when the structural pass reports errors (the CFG may
// not be buildable).
func VerifyKernel(k *sass.Kernel) []Diagnostic {
	diags, _ := VerifyKernelFacts(k)
	return diags
}

// VerifyKernelFacts is VerifyKernel that also returns the facts the
// divergence, cfi and schedule checks shared (nil when they did not run),
// so a caller can run further checks on them without a second value
// fixpoint or control-stack walk.
func VerifyKernelFacts(k *sass.Kernel) ([]Diagnostic, *KernelFacts) {
	diags := CheckStructure(k)
	if HasErrors(diags) {
		return diags, nil
	}
	// The structural pass rejects the empty kernel, the one input BuildCFG
	// refuses. divergence, cfi and schedule share the facts; like every
	// check after the structural pass, they may assume resolved labels and
	// in-range operands.
	cfg, _ := sass.BuildCFG(k)
	facts := NewKernelFacts(cfg)
	diags = append(diags, checkDivergence(facts)...)
	diags = append(diags, CheckRoundTripEncoding(k)...)
	diags = append(diags, CheckDefiniteAssignment(cfg)...)
	_, cfi := AnalyzeCFI(facts)
	diags = append(diags, cfi...)
	diags = append(diags, checkSchedule(facts)...)
	return diags, facts
}

// CheckLinkage verifies that every JCAL symbol in the kernel is interned
// in the program's handler table (i.e. the instrumentor linked it).
func CheckLinkage(prog *sass.Program, k *sass.Kernel) []Diagnostic {
	var diags []Diagnostic
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op != sass.OpJCAL {
			continue
		}
		sym := ""
		for _, s := range in.Srcs {
			if s.Kind == sass.OpdSym {
				sym = s.Name
				break
			}
		}
		if sym == "" {
			continue // structural check reports the missing operand
		}
		if _, ok := prog.Handlers[sym]; !ok {
			diags = append(diags, Diagnostic{
				Sev: Error, Check: CheckStructural, Kernel: k.Name, Instr: i,
				Msg: fmt.Sprintf("JCAL to symbol %q absent from the program handler table", sym),
			})
		}
	}
	return diags
}
