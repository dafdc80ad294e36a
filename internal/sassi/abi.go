// Package sassi implements the paper's contribution: a selective,
// compiler-level instrumentation framework for GPU machine code. Given a
// compiled SASS kernel, an instrumentation specification (where to inject,
// what to pass), and user handlers, it rewrites the kernel so that each
// selected site performs a CUDA-ABI-compliant call into the handler:
//
//  1. allocate a stack frame for the parameter objects,
//  2. spill exactly the live registers the handler may clobber,
//  3. materialize the parameter objects (BeforeParams plus an optional
//     memory/branch/register object) with STL stores,
//  4. pass generic pointers to the objects in the ABI argument registers,
//  5. JCAL to the handler symbol,
//  6. restore the spilled state and release the frame.
//
// The pass runs on final machine code — after register allocation and
// scheduling — and never reorders or rewrites the original instructions,
// matching the paper's placement of SASSI as the last ptxas pass.
package sassi

import "sassi/internal/sass"

// The CUDA-ABI conventions this instrumentor follows. They mirror the
// paper's Figure 2: R1 is the stack pointer, 64-bit pointer arguments go
// in (R4,R5) and (R6,R7), and instrumentation handlers may use at most
// HandlerMaxRegs registers, so only live registers below that bound need
// to be preserved around a call.
const (
	// ABIArg0 and ABIArg1 are the register pairs carrying the two handler
	// arguments (generic pointers to the parameter objects).
	ABIArg0 = sass.JCALArg0
	ABIArg1 = sass.JCALArg1

	// HandlerMaxRegs caps the register footprint of instrumentation
	// handlers (nvcc -maxrregcount=16 in the paper, §3.2). The injector
	// spills live registers in [0, HandlerMaxRegs) only.
	HandlerMaxRegs = 16

	// scratchPred is the GPR used to shuttle predicate and CC state to the
	// spill area. It lies inside the spill range, so a live value in it is
	// already preserved before the shuttle clobbers it.
	scratchPred = 3
)

// BeforeParams object layout (byte offsets within the stack frame). The
// field set and offsets follow the paper's Figure 2(a/b): GPR spills start
// at +0x18 and the instruction encoding lives at +0x58.
const (
	bpID          = 0x00 // site id (unique per instrumentation site)
	bpWillExec    = 0x04 // 1 iff the instruction's guard passes
	bpFnAddr      = 0x08 // kernel base pseudo-address
	bpInsOffset   = 0x0c // byte offset of the instruction within the kernel
	bpPRSpill     = 0x10 // spilled predicate register file
	bpCCSpill     = 0x14 // spilled condition code
	bpGPRSpill    = 0x18 // 16 spill slots, 4 bytes each (through 0x57)
	bpInsEncoding = 0x58 // sass.EncodeSummary word
	bpSpillCount  = 0x5c // number of occupied spill slots
	bpSpillRegs   = 0x60 // 16 bytes: GPR number per spill slot (0xff empty)
	bpSize        = 0x70
)

// MemoryParams object layout (paper Figure 2(c)).
const (
	mpAddress    = 0x00 // 64-bit effective address (generic)
	mpProperties = 0x08 // static property bits (same summary encoding)
	mpWidth      = 0x0c // access width in bytes
	mpDomain     = 0x10 // memory domain (mem.Space numeric value)
	mpSize       = 0x18
)

// CondBranchParams object layout.
const (
	cbDirection   = 0x00 // 1 iff this thread will take the branch
	cbTakenOffset = 0x04 // byte offset of the branch target
	cbFallOffset  = 0x08 // byte offset of the fall-through instruction
	cbSize        = 0x10
)

// RegisterParams object layout: static operand register info. Values are
// read through BeforeParams' spill map at handler time, so only register
// numbers are materialized here.
const (
	rpNumDsts = 0x00
	rpDstRegs = 0x04 // 4 slots
	rpNumSrcs = 0x14
	rpSrcRegs = 0x18 // 8 slots
	rpSize    = 0x38
)

// frameSize returns the stack frame for a site with the given extra object.
func frameSize(extra int) int64 {
	n := bpSize + extra
	// Keep 16-byte alignment like the CUDA ABI.
	return int64((n + 15) &^ 15)
}
