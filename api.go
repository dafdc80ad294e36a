package sassi

import (
	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/experiments"
	"sassi/internal/faults"
	"sassi/internal/handlers"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	isassi "sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/trace"
	"sassi/internal/uvm"
	"sassi/internal/workloads"
)

// Compilation pipeline.

// Builder authors kernels at the PTX (virtual ISA) level.
type Builder = ptx.Builder

// Module is a set of PTX kernels compiled together.
type Module = ptx.Module

// Value is a typed virtual register in builder code.
type Value = ptx.Value

// NewKernel starts building a kernel.
func NewKernel(name string) *Builder { return ptx.NewKernel(name) }

// NewModule returns an empty PTX module.
func NewModule() *Module { return ptx.NewModule() }

// CmpOp is a comparison operator for Builder.Setp.
type CmpOp = sass.CmpOp

// Comparison operators.
const (
	CmpLT = sass.CmpLT
	CmpLE = sass.CmpLE
	CmpGT = sass.CmpGT
	CmpGE = sass.CmpGE
	CmpEQ = sass.CmpEQ
	CmpNE = sass.CmpNE
)

// CompileOptions configures the backend compiler (ptxas analog).
type CompileOptions = ptxas.Options

// Program is compiled SASS machine code, the unit SASSI instruments and
// the simulator executes.
type Program = sass.Program

// Compile lowers a PTX module to SASS.
func Compile(m *Module, opts CompileOptions) (*Program, error) {
	return ptxas.Compile(m, opts)
}

// CompileModule builds one finished kernel builder into a program with
// default options.
func CompileModule(bs ...*Builder) (*Program, error) {
	m := ptx.NewModule()
	for _, b := range bs {
		f, err := b.Done()
		if err != nil {
			return nil, err
		}
		m.Add(f)
	}
	return ptxas.Compile(m, ptxas.Options{})
}

// Instrumentation (the paper's contribution).

// InstrumentOptions selects where to inject and what to pass (§3.1-3.2).
type InstrumentOptions = isassi.Options

// Where selects instrumentation sites.
type Where = isassi.Where

// Site-selection flags.
const (
	BeforeAll          = isassi.BeforeAll
	BeforeMem          = isassi.BeforeMem
	BeforeCondBranches = isassi.BeforeCondBranches
	BeforeControlXfer  = isassi.BeforeControlXfer
	BeforeCalls        = isassi.BeforeCalls
	BeforeRegWrites    = isassi.BeforeRegWrites
	BeforeRegReads     = isassi.BeforeRegReads
	AfterAll           = isassi.AfterAll
	AfterRegWrites     = isassi.AfterRegWrites
	AfterMem           = isassi.AfterMem
	KernelEntry        = isassi.KernelEntry
	KernelExit         = isassi.KernelExit
	BBHeaders          = isassi.BBHeaders
)

// What selects the extra parameter object.
type What = isassi.What

// Extra-info flags.
const (
	PassNone           = isassi.PassNone
	PassMemoryInfo     = isassi.PassMemoryInfo
	PassCondBranchInfo = isassi.PassCondBranchInfo
	PassRegisterInfo   = isassi.PassRegisterInfo
)

// Instrument rewrites the program's kernels in place, injecting
// ABI-compliant handler calls at the selected sites.
func Instrument(prog *Program, opts InstrumentOptions) error {
	return isassi.Instrument(prog, opts)
}

// Handlers.

// WarpCtx is the warp view a handler executes with: the running mask,
// ascending-lane iteration, warp collectives and per-lane accessors.
type WarpCtx = device.Warp

// Lane is one thread's accessor within a WarpCtx: indices, registers and
// device memory.
type Lane = device.Lane

// HandlerArgs carries the decoded parameter objects into a handler.
type HandlerArgs = isassi.HandlerArgs

// Handler binds a JCAL symbol to a Go handler function.
type Handler = isassi.Handler

// HandlerFunc is an instrumentation handler body, called once per warp.
type HandlerFunc = isassi.HandlerFunc

// BeforeParams, MemoryParams, CondBranchParams and RegisterParams mirror
// the paper's SASSI*Params classes.
type (
	BeforeParams     = isassi.BeforeParams
	MemoryParams     = isassi.MemoryParams
	CondBranchParams = isassi.CondBranchParams
	RegisterParams   = isassi.RegisterParams
)

// Runtime links handlers to an instrumented program and dispatches calls.
type Runtime = isassi.Runtime

// NewRuntime creates a runtime for one instrumented program.
func NewRuntime(prog *Program) *Runtime { return isassi.NewRuntime(prog) }

// FullMask is the all-lanes predicate: WarpCtx.Ballot(FullMask) is
// __ballot(1).
const FullMask = device.FullMask

// Warp intrinsic helpers usable inside handlers.
var (
	// Popc is CUDA __popc.
	Popc = device.Popc
	// Ffs is CUDA __ffs (1-based, 0 when empty).
	Ffs = device.Ffs
)

// Execution substrate.

// Config describes the simulated GPU.
type Config = sim.Config

// Device configurations approximating the paper's testbeds.
var (
	KeplerK10 = sim.KeplerK10
	KeplerK20 = sim.KeplerK20
	KeplerK40 = sim.KeplerK40
	MiniGPU   = sim.MiniGPU
)

// Context is the host-side runtime (CUDA analog): memory management,
// copies, launches, per-launch callbacks.
type Context = cuda.Context

// DevPtr is a device memory address.
type DevPtr = cuda.DevPtr

// LaunchParams configures one kernel launch.
type LaunchParams = sim.LaunchParams

// Dim3 is a CUDA-style 3D extent; D1/D2 are shorthand constructors.
type Dim3 = sim.Dim3

// D1 returns a 1-D extent.
func D1(x int) Dim3 { return sim.D1(x) }

// D2 returns a 2-D extent.
func D2(x, y int) Dim3 { return sim.D2(x, y) }

// KernelStats reports what one launch executed and cost.
type KernelStats = sim.KernelStats

// NewContext creates a host context on a fresh simulated device.
func NewContext(cfg Config) *Context { return cuda.NewContext(cfg) }

// Case-study profilers (the paper's handler library).

// BranchProfiler is Case Study I: per-branch divergence statistics.
type BranchProfiler = handlers.BranchProfiler

// NewBranchProfiler allocates the profiler's device state on a context.
func NewBranchProfiler(ctx *Context) *BranchProfiler { return handlers.NewBranchProfiler(ctx) }

// MemDivProfiler is Case Study II: warp memory address divergence.
type MemDivProfiler = handlers.MemDivProfiler

// NewMemDivProfiler allocates the profiler's device state on a context.
func NewMemDivProfiler(ctx *Context) *MemDivProfiler { return handlers.NewMemDivProfiler(ctx) }

// ValueProfiler is Case Study III: constant-bit and scalar-value profiling.
type ValueProfiler = handlers.ValueProfiler

// NewValueProfiler allocates the profiler's device state on a context.
func NewValueProfiler(ctx *Context) *ValueProfiler { return handlers.NewValueProfiler(ctx) }

// OpCounter is the paper's Figure 3 instruction categorizer.
type OpCounter = handlers.OpCounter

// NewOpCounter allocates the counter bank on a context.
func NewOpCounter(ctx *Context) *OpCounter { return handlers.NewOpCounter(ctx) }

// Fault injection (Case Study IV).

// Campaign configures an error-injection study.
type Campaign = faults.Campaign

// CampaignResult aggregates a campaign's outcome distribution.
type CampaignResult = faults.Result

// Outcome classifies one injection run.
type Outcome = faults.Outcome

// Injection outcomes.
const (
	Masked         = faults.Masked
	Crash          = faults.Crash
	Hang           = faults.Hang
	FailureSymptom = faults.FailureSymptom
	StdoutOnlyDiff = faults.StdoutOnlyDiff
	OutputDiff     = faults.OutputDiff
)

// Workload suite.

// Workload describes one benchmark of the suite.
type Workload = workloads.Spec

// WorkloadResult is a workload run's outputs.
type WorkloadResult = workloads.Result

// Workloads lists the registered benchmark names.
func Workloads() []string { return workloads.Names() }

// GetWorkload returns a registered benchmark.
func GetWorkload(name string) (*Workload, bool) { return workloads.Get(name) }

// Trace export (§9.4: driving other simulators).

// MemTracer records the coalesced global-memory transactions of a run.
type MemTracer = trace.MemTracer

// TraceEvent is one warp-level transaction set.
type TraceEvent = trace.Event

// ReplayCache drives a standalone cache model with a recorded trace.
var ReplayCache = trace.ReplayCache

// ReadTrace deserializes a trace written with MemTracer.Write.
var ReadTrace = trace.Read

// Heterogeneous CPU+GPU tracing (§9.4's Unified Virtual Memory prototype).

// UVMManager correlates CPU- and GPU-side touches of managed memory into
// page migration and sharing statistics.
type UVMManager = uvm.Manager

// UVMEvent is one touch of managed memory by either processor.
type UVMEvent = uvm.Event

// Processors in the unified trace.
const (
	UVMCPU = uvm.CPU
	UVMGPU = uvm.GPU
)

// NewUVMManager creates a UVM manager over a context.
func NewUVMManager(ctx *Context) *UVMManager { return uvm.NewManager(ctx) }

// Evaluation harness.

// ExperimentEnv configures the table/figure regeneration harness.
type ExperimentEnv = experiments.Env

// DefaultEnv returns the standard experiment environment.
func DefaultEnv() ExperimentEnv { return experiments.Default() }
