// Package analysis is the static-analysis layer over compiled SASS: a
// reusable forward/backward dataflow framework (dominators, reaching
// definitions, definite assignment, block liveness) plus a composable
// verifier that every compiled and instrumented program passes through.
//
// The paper's core claim (§3.2, §9.4) is that a compiler-level pass knows
// the machine-code structure — CFG, exact register liveness, divergence
// stack, calling convention — that binary rewriters must guess at. This
// package turns that structural knowledge into checks: instead of an
// injection or register-allocation bug surfacing as a wrong simulation
// result many layers later, ptxas.Compile and sassi.Instrument fail fast
// with a positioned diagnostic.
//
// Check classes (the catalogue):
//
//   - structural: branch/SSY targets in range, operands well-formed,
//     no fall-through off the kernel end, unsupported opcodes;
//   - divergence: SSY/SYNC (and CAL/RET) push/pop depth matched, typed,
//     and bounded on every control-flow path;
//   - def-assign: no GPR/predicate/CC read that is reachable-before-def
//     from kernel entry (warnings — inputs arrive via constant bank);
//   - round-trip: Encode→Decode of every instruction is the identity;
//   - instr-safety: an instrumented kernel preserves the original
//     instructions verbatim and in order, saves/restores every live
//     register its injected code clobbers, follows the handler ABI, and
//     uses dense, unique site IDs.
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
	// CheckBarrier and CheckSharedRace are registered by
	// internal/analysis/concurrency (import it for the side effect).
	CheckBarrier    = "barrier-divergence"
	CheckSharedRace = "shared-race"
	// CheckCFI is registered by internal/analysis/cfi (import it for the
	// side effect): legal-target sets for CAL/RET and SSY/SYNC
	// reconvergence.
	CheckCFI = "cfi"
	// CheckSchedule is registered by internal/analysis/deps (import it
	// for the side effect): certifies that a scheduler-reordered kernel
	// (sass.Kernel.SchedOrig) is a topological order of the dependence
	// DAG of the reconstructed original, fences respected.
	CheckSchedule = "schedule"
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
// to every registered check: the CFG and, built on first use, the value
// lattice's fixpoint. A check that needs the valuation takes it from
// Values — never from AnalyzeValues — so verifying a kernel runs the
// fixpoint once however many checks consult it. Like the Valuation it
// holds, a KernelFacts is for one goroutine.
type KernelFacts struct {
	CFG *sass.CFG
	val *Valuation
}

// NewKernelFacts wraps a CFG for callers that run a check, or build a
// dependence graph, outside VerifyKernel.
func NewKernelFacts(cfg *sass.CFG) *KernelFacts { return &KernelFacts{CFG: cfg} }

// Values returns AnalyzeValues(f.CFG), computed on the first call.
func (f *KernelFacts) Values() *Valuation {
	if f.val == nil {
		f.val = AnalyzeValues(f.CFG)
	}
	return f.val
}

// KernelCheckFunc is a registered kernel-level check. It runs after the
// built-in checks, only when the structural pass found no errors and the
// CFG built, so implementations may assume resolved labels and in-range
// operands.
type KernelCheckFunc func(f *KernelFacts) []Diagnostic

// kernelChecks is the registry of extra checks VerifyKernel runs, in
// registration order. Packages contribute via RegisterKernelCheck from
// init (e.g. internal/analysis/concurrency); consumers opt in by
// importing the contributing package.
var kernelChecks []struct {
	name string
	fn   KernelCheckFunc
}

// RegisterKernelCheck adds a named check to the Verify pipeline. It is
// meant to be called from init; registering the same name twice panics.
func RegisterKernelCheck(name string, fn KernelCheckFunc) {
	for _, c := range kernelChecks {
		if c.name == name {
			panic("analysis: duplicate kernel check " + name)
		}
	}
	kernelChecks = append(kernelChecks, struct {
		name string
		fn   KernelCheckFunc
	}{name, fn})
}

// RegisteredChecks lists the names of registered kernel checks.
func RegisteredChecks() []string {
	out := make([]string, len(kernelChecks))
	for i, c := range kernelChecks {
		out[i] = c.name
	}
	return out
}

// KnownChecks lists every check class a diagnostic can carry — the full
// Check* catalogue. Registered kernel-check names are registry keys, not
// diagnostic classes (concurrency registers once and emits two classes),
// so they are deliberately not included. Tools that accept a check filter
// (sassi-lint -checks) validate names against this list.
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
// program-level link check (JCAL symbols resolved in the handler table),
// returning all findings sorted.
func Verify(prog *sass.Program) []Diagnostic {
	var diags []Diagnostic
	for _, k := range prog.Kernels {
		diags = append(diags, VerifyKernel(k)...)
		diags = append(diags, checkLinkage(prog, k)...)
	}
	SortDiagnostics(diags)
	return diags
}

// VerifyKernel runs the structural, divergence, definite-assignment and
// encoding round-trip checks over one kernel. Deeper checks are skipped
// when the structural pass reports errors (the CFG may not be buildable).
func VerifyKernel(k *sass.Kernel) []Diagnostic {
	diags, _ := verifyKernel(k)
	return diags
}

// verifyKernel also returns the facts the registered checks shared (nil
// when they did not run).
func verifyKernel(k *sass.Kernel) ([]Diagnostic, *KernelFacts) {
	diags := CheckStructure(k)
	if HasErrors(diags) {
		return diags, nil
	}
	diags = append(diags, CheckDivergenceStack(k)...)
	diags = append(diags, CheckRoundTripEncoding(k)...)
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		return append(diags, Diagnostic{
			Sev: Error, Check: CheckStructural, Kernel: k.Name, Instr: -1,
			Msg: fmt.Sprintf("cannot build CFG: %v", err),
		}), nil
	}
	diags = append(diags, CheckDefiniteAssignment(cfg)...)
	facts := NewKernelFacts(cfg)
	for _, c := range kernelChecks {
		diags = append(diags, c.fn(facts)...)
	}
	return diags, facts
}

// checkLinkage verifies that every JCAL symbol in the kernel is interned
// in the program's handler table (i.e. the instrumentor linked it).
func checkLinkage(prog *sass.Program, k *sass.Kernel) []Diagnostic {
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
