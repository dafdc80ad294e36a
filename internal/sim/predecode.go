package sim

import (
	"sassi/internal/analysis"
	"sassi/internal/sass"
)

// The execution core runs a predecoded form of the kernel, not its
// sass.Instructions: at a kernel's first launch the SASS is lowered into a
// dense flat format — operand kinds resolved (RZ folded to zero,
// constant-bank offsets bounds-checked once, predicate guards pre-split),
// scoreboard slot lists precomputed, static issue costs and result
// latencies cached, straight-line instruction runs measured per basic
// block, and a per-instruction "provably uniform" bit derived from the
// affine value lattice (internal/analysis). Execution then dispatches on a
// small class enum with manual lane loops instead of per-operand switches
// and closure iterators, takes a uniform-warp fast path (execute the
// leader lane once, broadcast the result) when the lattice proved the
// instruction uniform, and falls back to the reference interpreter's
// execOp for control transfers, barriers, SASSI handler calls, and any
// operation without a specialized class.
//
// Everything observable — architectural state, KernelStats (including
// cycles and scoreboard stalls), obs metrics, PC samples — is bit-equal
// to the reference interpreter (Config.ReferenceInterpreter): stepPre
// replicates step's accounting exactly and warps still issue one
// instruction per round-robin sweep, because any cross-warp batching would
// reorder the per-SM memory access stream and change cache statistics.
// Whole runs execute back-to-back only when an SM has a single live warp
// and no pending CTAs, where no other warp can observe the interleaving.

// preClass selects a specialized execution path in stepPre. pcGeneric
// delegates to the interpreter's execOp.
type preClass uint8

const (
	pcGeneric preClass = iota
	pcMOV              // MOV/MOV32/S2R/F2F: dst = src0
	pcIADD             // IADD/IADD32 without .X/.CC
	pcIMUL
	pcIMAD
	pcISCADD
	pcSHL
	pcSHR
	pcLOP
	pcSEL
	pcISETP
	pcFSETP
	pcFADD
	pcFMUL
	pcFFMA
	pcIMNMX
	pcFMNMX
	pcMUFU  // special-function unit: RCP/RSQ/SQRT/SIN/COS/EX2/LG2
	pcMemG  // LD/ST/LDG/STG: generic/global access, batched when all-global
	pcMemS  // LDS/STS
	pcMemL  // LDL/STL
	pcIADDC // IADD with .CC and/or .X: the 64-bit carry chain
	pcPSETP // predicate logic
	pcP2R   // predicate file or (.X) CC into a GPR under a mask
	pcR2P   // GPR into the predicate file or (.X) CC under a mask
	pcBRA   // predicated branch with a label target
	pcSYNC  // reconvergence pop
)

// preSrcKind is a resolved operand kind.
type preSrcKind uint8

const (
	psZero preSrcKind = iota // RZ or absent operand
	psReg
	psImm
	psCMem // constant-bank word, offset validated at predecode
	psSR   // special register (thread identity, clock, ...)
	psPred // predicate operand evaluated to 0/1 (srcU32 semantics)
)

// preSrc is one resolved scalar source operand.
type preSrc struct {
	kind preSrcKind
	reg  uint8 // psReg: GPR; psPred: predicate register
	neg  bool  // psPred
	sr   sass.SpecialReg
	imm  uint32 // psImm
	off  int32  // psCMem byte offset
}

// preInstr flag bits.
const (
	pfGuardAlways = 1 << iota // no guard predicate to evaluate
	pfGuardNeg                // guard is negated
	pfUniform                 // lattice-proven uniform and in a broadcast-safe class
	pfInjected                // SASSI-injected instruction
	pfStraight                // always advances PC+1 and cannot block the warp
	pfSetCC                   // pcIADDC: writes the condition code
	pfX                       // pcIADDC: consumes the carry bit; pcP2R/pcR2P: CC, not predicates
	pfFoldDyn                 // class's lane loops bump Thread.DynInstrs themselves
)

// preInstr is one predecoded instruction. Fields beyond the shared header
// are meaningful only for the classes that read them.
type preInstr struct {
	class    preClass
	flags    uint8
	guardReg uint8

	dst  uint8 // primary GPR destination (RZ when none)
	dstP uint8 // primary predicate destination (PT when none)
	dstQ uint8 // complement predicate destination (PT when none)

	srcs [3]preSrc

	staticCost uint8 // sass.IssueCost
	resLat     uint8 // sass.ResultLatency

	// Scoreboard slot lists, replicating Warp.scoreboard's consider and
	// retire sets exactly (GPR width expansion, guard and predicate
	// sources, CC on .X/.CC).
	sbSrc []uint16
	sbDst []uint16

	// Specialized-class modifiers.
	cmp      sass.CmpOp
	logic    sass.LogicOp
	mufu     sass.MufuFunc
	unsigned bool
	negB     bool

	// target is the branch destination PC (pcBRA).
	target int32

	// Memory classes.
	memBase  uint8 // address base register (RZ when absolute)
	memOff   int64
	memE     bool // 64-bit address in a register pair
	width    sass.Width
	nbytes   uint8
	store    bool
	forceG   bool  // LDG/STG: address must decode to global space
	dataReg  uint8 // store data base register
	memFault bool  // memory op needs per-lane space decode (generic LD/ST)

	// run is the number of consecutive straight-line instructions
	// starting here (including this one); 1 for anything that can branch,
	// block, or leave the kernel. The solo-warp block dispatcher executes
	// a whole run between liveness checks.
	run uint16
}

// preKernel is the predecoded form of one kernel. It is cached on the
// kernel (sass.Kernel.Lowered), so every device that launches the kernel
// shares one predecode and the cache dies with the kernel; Lowered rebuilds
// it when the kernel's instruction stream has been replaced, which
// sassi.Instrument does under the same *sass.Kernel. It is immutable once
// built: any number of launches read it concurrently.
type preKernel struct {
	k   *sass.Kernel
	ins []preInstr
}

// straightLine reports whether the op always advances PC+1 and can
// neither block the warp nor redirect control: the run-membership test.
func straightLine(op sass.Opcode) bool {
	switch op {
	case sass.OpBRA, sass.OpSYNC, sass.OpBRK, sass.OpPBK, sass.OpEXIT,
		sass.OpCAL, sass.OpRET, sass.OpJCAL, sass.OpBAR:
		return false
	}
	return true
}

// broadcastSafe reports whether a specialized class reads only its
// declared sources (covered by the lattice's srcsUniform) and writes only
// its declared destinations, making leader-execute-and-broadcast legal.
// Memory classes are excluded: a load's data is not a function of its
// sources (another SM may store concurrently), and stores/atomics have
// per-lane side effects the memory model must see individually.
func broadcastSafe(c preClass) bool {
	return c >= pcMOV && c <= pcMUFU
}

// predecode lowers one kernel into the dense format (the build function of
// sass.Kernel.Lowered). Constant-bank offsets are validated against the
// size every launch of the kernel uses, a function of its parameter layout.
func predecode(k *sass.Kernel) any {
	pk := &preKernel{k: k, ins: make([]preInstr, len(k.Instrs))}
	cbSize := constBankSize(k)

	// Per-instruction uniformity from the affine value lattice. An
	// analysis failure (malformed CFG) just loses the fast path; the
	// instructions still execute via their specialized or generic class.
	uni, _ := analysis.KernelUniformity(k)

	for i := range k.Instrs {
		in := &k.Instrs[i]
		p := &pk.ins[i]
		p.class = classify(in, cbSize)
		p.guardReg = in.Guard.Reg
		if in.Guard.IsAlways() {
			p.flags |= pfGuardAlways
		}
		if in.Guard.Neg {
			p.flags |= pfGuardNeg
		}
		if in.Injected {
			p.flags |= pfInjected
		}
		if straightLine(in.Op) {
			p.flags |= pfStraight
		}
		if uni != nil && uni[i].Uniform() && broadcastSafe(p.class) {
			p.flags |= pfUniform
		}
		if in.Mods.SetCC {
			p.flags |= pfSetCC
		}
		if in.Mods.X {
			p.flags |= pfX
		}
		// Classes whose execution loops walk every executing lane before
		// any fault can occur fold the per-lane DynInstrs increment into
		// that walk; stepPre then skips its own counting pass. The
		// shared/local classes keep the up-front pass: their loops fault
		// mid-warp, and the interpreter counts every lane first.
		if (p.class >= pcMOV && p.class <= pcMUFU) || p.class == pcMemG ||
			(p.class >= pcIADDC && p.class <= pcR2P) {
			p.flags |= pfFoldDyn
		}
		p.staticCost = uint8(sass.IssueCost(in))
		p.resLat = uint8(sass.ResultLatency(in))
		p.fillScoreboard(in)
		p.fillOperands(in, cbSize)
	}

	// Straight-line runs: the length of the suffix of consecutive
	// pfStraight instructions starting at each PC.
	for i := len(pk.ins) - 1; i >= 0; i-- {
		p := &pk.ins[i]
		p.run = 1
		if p.flags&pfStraight != 0 && i+1 < len(pk.ins) &&
			pk.ins[i+1].flags&pfStraight != 0 && pk.ins[i+1].run < 1<<14 {
			p.run = pk.ins[i+1].run + 1
		}
	}
	return pk
}

// classify picks the specialized class for an instruction, or pcGeneric
// when any precondition fails (the generic path is always correct).
func classify(in *sass.Instruction, cbSize int) preClass {
	// P2R/R2P carry .X as "the condition code, not the predicate file";
	// injected code saves and restores both around every handler call.
	if !in.Mods.SetCC {
		switch {
		case in.Op == sass.OpP2R && alu2OK(in, cbSize):
			return pcP2R
		case in.Op == sass.OpR2P && srcsOK(in, 2, cbSize):
			return pcR2P
		}
	}
	// Specialized ALU classes write exactly one 32-bit GPR (or predicate
	// pair for SETP) and model no CC interaction. The CC-carrying IADD
	// forms — the 64-bit address carry chains that dominate generic-path
	// traffic — get their own class; everything else touching CC stays
	// generic.
	if in.Mods.SetCC || in.Mods.X {
		if (in.Op == sass.OpIADD || in.Op == sass.OpIADD32) && alu2OK(in, cbSize) {
			return pcIADDC
		}
		return pcGeneric
	}
	switch in.Op {
	case sass.OpMOV, sass.OpMOV32, sass.OpS2R, sass.OpF2F:
		if alu1OK(in, cbSize) {
			return pcMOV
		}
	case sass.OpIADD, sass.OpIADD32:
		if alu2OK(in, cbSize) {
			return pcIADD
		}
	case sass.OpIMUL:
		if alu2OK(in, cbSize) {
			return pcIMUL
		}
	case sass.OpIMAD:
		if alu3OK(in, cbSize) {
			return pcIMAD
		}
	case sass.OpISCADD:
		if alu3OK(in, cbSize) {
			return pcISCADD
		}
	case sass.OpSHL:
		if alu2OK(in, cbSize) {
			return pcSHL
		}
	case sass.OpSHR:
		if alu2OK(in, cbSize) {
			return pcSHR
		}
	case sass.OpLOP:
		// An out-of-enum logic modifier silently writes nothing in the
		// interpreter; keep that quirk on the generic path.
		if in.Mods.Logic <= sass.LogicNOT && alu2OK(in, cbSize) {
			return pcLOP
		}
	case sass.OpSEL:
		if len(in.Srcs) == 3 && in.Srcs[2].Kind == sass.OpdPred && alu2OK(in, cbSize) {
			return pcSEL
		}
	case sass.OpISETP:
		if setpOK(in, cbSize) {
			return pcISETP
		}
	case sass.OpFSETP:
		if setpOK(in, cbSize) {
			return pcFSETP
		}
	case sass.OpFADD:
		if alu2OK(in, cbSize) {
			return pcFADD
		}
	case sass.OpFMUL:
		if alu2OK(in, cbSize) {
			return pcFMUL
		}
	case sass.OpFFMA:
		if alu3OK(in, cbSize) {
			return pcFFMA
		}
	case sass.OpIMNMX:
		if minmaxOK(in, cbSize) {
			return pcIMNMX
		}
	case sass.OpFMNMX:
		if minmaxOK(in, cbSize) {
			return pcFMNMX
		}
	case sass.OpMUFU:
		if alu1OK(in, cbSize) {
			return pcMUFU
		}
	case sass.OpPSETP:
		// The interpreter reads Srcs[0]/Srcs[1] as predicates and writes
		// Dsts[0] only.
		if len(in.Srcs) >= 2 && in.Srcs[0].Kind == sass.OpdPred &&
			in.Srcs[1].Kind == sass.OpdPred &&
			len(in.Dsts) >= 1 && in.Dsts[0].Kind == sass.OpdPred {
			return pcPSETP
		}
	case sass.OpBRA:
		if t, ok := in.BranchTarget(); ok && t.Kind == sass.OpdLabel {
			return pcBRA
		}
	case sass.OpSYNC:
		return pcSYNC
	case sass.OpLD, sass.OpST, sass.OpLDG, sass.OpSTG:
		if memOK(in) {
			return pcMemG
		}
	case sass.OpLDS, sass.OpSTS:
		if memOK(in) {
			return pcMemS
		}
	case sass.OpLDL, sass.OpSTL:
		if memOK(in) {
			return pcMemL
		}
	}
	return pcGeneric
}

// srcOK reports whether a source operand can be resolved to a preSrc.
func srcOK(o sass.Operand, cbSize int) bool {
	switch o.Kind {
	case sass.OpdReg, sass.OpdImm, sass.OpdSReg, sass.OpdPred:
		return true
	case sass.OpdCMem:
		// Out-of-range words must fault at execution time; the generic
		// path reproduces the exact cbRead32 fault.
		return o.Imm >= 0 && o.Imm+4 <= int64(cbSize)
	}
	return false
}

func dstOK(in *sass.Instruction) bool {
	// One plain 32-bit GPR destination (W64 pairs and wider go generic).
	return len(in.Dsts) == 1 && in.Dsts[0].Kind == sass.OpdReg &&
		in.Mods.Width != sass.W64 && in.Mods.Width != sass.W128
}

func srcsOK(in *sass.Instruction, n, cbSize int) bool {
	if len(in.Srcs) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if !srcOK(in.Srcs[i], cbSize) {
			return false
		}
	}
	return true
}

func alu1OK(in *sass.Instruction, cbSize int) bool {
	return dstOK(in) && srcsOK(in, 1, cbSize)
}
func alu2OK(in *sass.Instruction, cbSize int) bool {
	return dstOK(in) && srcsOK(in, 2, cbSize)
}
func alu3OK(in *sass.Instruction, cbSize int) bool {
	return dstOK(in) && srcsOK(in, 3, cbSize)
}

// minmaxOK admits IMNMX/FMNMX: two value sources plus an optional
// predicate selector.
func minmaxOK(in *sass.Instruction, cbSize int) bool {
	if !dstOK(in) || !srcsOK(in, 2, cbSize) {
		return false
	}
	return len(in.Srcs) <= 2 || in.Srcs[2].Kind == sass.OpdPred
}

// setpOK admits ISETP/FSETP: predicate destinations, two value sources,
// optional combine predicate.
func setpOK(in *sass.Instruction, cbSize int) bool {
	if len(in.Dsts) < 1 || in.Dsts[0].Kind != sass.OpdPred {
		return false
	}
	if len(in.Dsts) > 1 && in.Dsts[1].Kind != sass.OpdPred {
		return false
	}
	if len(in.Dsts) > 2 {
		return false
	}
	if !srcsOK(in, 2, cbSize) {
		return false
	}
	return len(in.Srcs) <= 2 || in.Srcs[2].Kind == sass.OpdPred
}

// memOK admits a memory instruction to a specialized class: one memory
// operand, a plain register destination (loads) or data source (stores).
func memOK(in *sass.Instruction) bool {
	nmem := 0
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdMem {
			nmem++
		}
	}
	if nmem != 1 {
		return false
	}
	if in.Op.IsMemRead() {
		if len(in.Dsts) != 1 || in.Dsts[0].Kind != sass.OpdReg {
			return false
		}
	} else {
		found := false
		for _, s := range in.Srcs {
			if s.Kind == sass.OpdReg {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// resolveSrc lowers one scalar source operand. Callers have already
// validated the operand via srcOK.
func resolveSrc(o sass.Operand) preSrc {
	switch o.Kind {
	case sass.OpdReg:
		if o.Reg == sass.RZ {
			return preSrc{kind: psZero}
		}
		return preSrc{kind: psReg, reg: o.Reg}
	case sass.OpdImm:
		return preSrc{kind: psImm, imm: uint32(o.Imm)}
	case sass.OpdCMem:
		return preSrc{kind: psCMem, off: int32(o.Imm)}
	case sass.OpdSReg:
		return preSrc{kind: psSR, sr: o.SR}
	case sass.OpdPred:
		return preSrc{kind: psPred, reg: o.Reg, neg: o.Neg}
	}
	return preSrc{kind: psZero}
}

// fillOperands resolves the class-specific operand fields.
func (p *preInstr) fillOperands(in *sass.Instruction, cbSize int) {
	p.dst = sass.RZ
	p.dstP = sass.PT
	p.dstQ = sass.PT
	switch {
	case p.class == pcGeneric || p.class == pcSYNC:
		return
	case p.class == pcBRA:
		t, _ := in.BranchTarget()
		p.target = int32(t.Imm)
		return
	case p.class >= pcMemG && p.class <= pcMemL:
		p.width = in.Mods.Width
		p.nbytes = uint8(in.Mods.Width.Bytes())
		p.memE = in.Mods.E
		p.store = !in.Op.IsMemRead()
		p.forceG = in.Op == sass.OpLDG || in.Op == sass.OpSTG
		for _, s := range in.Srcs {
			if s.Kind == sass.OpdMem {
				p.memBase = s.Reg
				p.memOff = s.Imm
			}
		}
		if p.store {
			p.dataReg = in.Srcs[srcDataIdx(in)].Reg
		} else {
			p.dst = in.Dsts[0].Reg
		}
		// A modifier set preserving the guard is needed for the SETP
		// fields below, but memory classes are done.
		return
	case p.class == pcISETP || p.class == pcFSETP:
		p.dstP = in.Dsts[0].Reg
		if len(in.Dsts) > 1 {
			p.dstQ = in.Dsts[1].Reg
		}
	case p.class == pcPSETP:
		// Only Dsts[0]; the interpreter ignores any complement operand.
		p.dstP = in.Dsts[0].Reg
	case p.class == pcR2P:
		// Writes predicates or CC only; the interpreter ignores any Dsts.
	default:
		p.dst = in.Dsts[0].Reg
	}
	for i := 0; i < 3 && i < len(in.Srcs); i++ {
		p.srcs[i] = resolveSrc(in.Srcs[i])
	}
	// Absent optional predicate selectors read as PT (true), matching the
	// interpreter's defaults in execSetp and the min/max family.
	if (p.class == pcISETP || p.class == pcFSETP || p.class == pcIMNMX || p.class == pcFMNMX) &&
		len(in.Srcs) <= 2 {
		p.srcs[2] = preSrc{kind: psPred, reg: sass.PT}
	}
	p.cmp = in.Mods.Cmp
	p.logic = in.Mods.Logic
	p.mufu = in.Mods.Mufu
	p.unsigned = in.Mods.Unsigned
	p.negB = in.Mods.NegB
}

// fillScoreboard precomputes the consider (sbSrc) and retire (sbDst) slot
// lists, mirroring Warp.scoreboard instruction walks.
func (p *preInstr) fillScoreboard(in *sass.Instruction) {
	var buf [24]uint8
	add := func(dst *[]uint16, slot int) {
		for _, s := range *dst {
			if int(s) == slot {
				return
			}
		}
		*dst = append(*dst, uint16(slot))
	}
	for _, r := range in.AppendGPRSrcs(buf[:0]) {
		if r != sass.RZ {
			add(&p.sbSrc, int(r))
		}
	}
	for _, r := range in.AppendGPRDsts(buf[:0]) {
		if r != sass.RZ {
			add(&p.sbSrc, int(r)) // WAW: the previous write must retire first
		}
	}
	if !in.Guard.IsAlways() && in.Guard.Reg != sass.PT {
		add(&p.sbSrc, sbPredBase+int(in.Guard.Reg))
	}
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdPred && s.Reg != sass.PT {
			add(&p.sbSrc, sbPredBase+int(s.Reg))
		}
	}
	if in.Mods.X || in.Mods.SetCC {
		add(&p.sbSrc, sbCCSlot)
	}
	for _, d := range in.AppendGPRDsts(buf[:0]) {
		if d != sass.RZ {
			add(&p.sbDst, int(d))
		}
	}
	for _, d := range in.Dsts {
		if d.Kind == sass.OpdPred && d.Reg != sass.PT {
			add(&p.sbDst, sbPredBase+int(d.Reg))
		}
	}
	if in.Mods.SetCC {
		add(&p.sbDst, sbCCSlot)
	}
}
