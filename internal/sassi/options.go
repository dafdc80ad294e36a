package sassi

import (
	"fmt"

	"sassi/internal/analysis"
	"sassi/internal/obs"
	"sassi/internal/sass"
)

// Where selects instrumentation sites, mirroring the paper's ptxas
// command-line menu (§3.1): instrumentation can go before any and all
// instructions, before instruction classes, after instructions other than
// control transfers, at basic block headers, and at kernel entry/exit.
type Where uint32

// Site-selection flags; combine with bitwise OR.
const (
	// BeforeAll injects before every original instruction.
	BeforeAll Where = 1 << iota
	// BeforeMem injects before memory operations.
	BeforeMem
	// BeforeCondBranches injects before predicated BRA instructions.
	BeforeCondBranches
	// BeforeControlXfer injects before any control transfer.
	BeforeControlXfer
	// BeforeCalls injects before CAL/JCAL.
	BeforeCalls
	// BeforeRegWrites injects before instructions that write a GPR,
	// predicate, or the condition code.
	BeforeRegWrites
	// BeforeRegReads injects before instructions that read a GPR.
	BeforeRegReads
	// AfterAll injects after every instruction except control transfers
	// (the paper: "after all instructions other than branches and jumps").
	AfterAll
	// AfterRegWrites injects after instructions that write a GPR,
	// predicate, or condition code (and are not control transfers).
	AfterRegWrites
	// AfterMem injects after memory operations.
	AfterMem
	// KernelEntry injects at the kernel's first instruction.
	KernelEntry
	// KernelExit injects before every EXIT.
	KernelExit
	// BBHeaders injects at every basic block head.
	BBHeaders
	// BeforeSSY injects before SSY instructions. SSY is not a control
	// transfer (it only pushes a reconvergence token), so BeforeControlXfer
	// does not cover it; control-state auditors (the CFI checker) need a
	// site there to model the divergence stack.
	BeforeSSY
)

// What selects the extra parameter object passed to the handler alongside
// SASSIBeforeParams/SASSIAfterParams.
type What uint32

// Extra-info flags. At most one extra object is passed per site (matching
// the two-argument handler signatures of the paper's case studies).
const (
	// PassNone passes only the before/after params object.
	PassNone What = 0
	// PassMemoryInfo passes a SASSIMemoryParams with the effective
	// address, width, and access properties.
	PassMemoryInfo What = 1 << iota
	// PassCondBranchInfo passes a SASSICondBranchParams with the branch
	// direction and targets.
	PassCondBranchInfo
	// PassRegisterInfo passes a SASSIRegisterParams with destination and
	// source register numbers.
	PassRegisterInfo
)

// Options configures one instrumentation run over a program.
type Options struct {
	// Where selects the sites.
	Where Where
	// What selects the extra parameter object.
	What What

	// BeforeHandler is the symbol JCAL'd at before-sites
	// (conventionally "sassi_before_handler").
	BeforeHandler string
	// AfterHandler is the symbol JCAL'd at after-sites.
	AfterHandler string

	// Select, when non-nil, further filters sites chosen by Where.
	Select func(k *sass.Kernel, idx int, in *sass.Instruction) bool

	// Verify controls the static safety check run after instrumentation
	// (internal/analysis): original code preserved, live state saved and
	// restored around handler calls, site IDs dense. The zero value runs
	// it under `go test` only; see analysis.VerifyMode.
	Verify analysis.VerifyMode

	// Metrics, when non-nil, receives instrumentation-time counters: sites
	// injected, injected instructions (split out per handler symbol), and
	// the ABI save/restore share — the quantity behind the paper's §9.1
	// "~80% of overhead is spill/fill" claim. Excluded from CacheKey: it
	// observes the work, it doesn't shape the output.
	Metrics *obs.Registry

	// Trace, when non-nil, records an instrument-phase span per kernel on
	// the host lane. Also excluded from CacheKey.
	Trace *obs.Tracer
}

// Spec returns the instrumentation ABI as an analysis.ABISpec, the contract
// VerifyInstrumentedProgram checks injected code against.
func Spec() analysis.ABISpec {
	return analysis.ABISpec{
		StackReg:       sass.SP,
		HandlerMaxRegs: HandlerMaxRegs,
		ArgRegs:        []uint8{ABIArg0, ABIArg0 + 1, ABIArg1, ABIArg1 + 1},
		SiteIDOffset:   bpID,
		MinFrame:       bpSize,
		FrameAlign:     16,
	}
}

// CacheKey returns a string identifying the instrumentation these options
// apply — suitable as part of a CompileCache key — and whether the options
// are cacheable at all. Options carrying a Select closure are not: a
// func's site filtering can't be summarized into a key string.
func (o *Options) CacheKey() (string, bool) {
	if o.Select != nil {
		return "", false
	}
	return fmt.Sprintf("where=%#x what=%#x before=%q after=%q verify=%t",
		o.Where, o.What, o.BeforeHandler, o.AfterHandler, o.Verify.Enabled()), true
}

// beforeSite reports whether instruction in should get before-injection.
func (o *Options) beforeSite(in *sass.Instruction) bool {
	w := o.Where
	switch {
	case w&BeforeAll != 0:
		return true
	case w&BeforeMem != 0 && in.Op.IsMem():
		return true
	case w&BeforeCondBranches != 0 && in.IsCondBranch():
		return true
	case w&BeforeControlXfer != 0 && in.Op.IsControlXfer():
		return true
	case w&BeforeCalls != 0 && in.Op.IsCall():
		return true
	case w&BeforeRegWrites != 0 && (in.WritesGPR() || in.WritesPred() || in.WritesCC()):
		return true
	case w&BeforeRegReads != 0 && len(in.GPRSrcs()) > 0:
		return true
	case w&KernelExit != 0 && in.Op == sass.OpEXIT:
		return true
	case w&BeforeSSY != 0 && in.Op == sass.OpSSY:
		return true
	}
	return false
}

// afterSite reports whether instruction in should get after-injection.
// Control transfers never qualify.
func (o *Options) afterSite(in *sass.Instruction) bool {
	if in.Op.IsControlXfer() || in.Op == sass.OpBAR {
		return false
	}
	w := o.Where
	switch {
	case w&AfterAll != 0:
		return true
	case w&AfterRegWrites != 0 && (in.WritesGPR() || in.WritesPred() || in.WritesCC()):
		return true
	case w&AfterMem != 0 && in.Op.IsMem():
		return true
	}
	return false
}
