package sim

import (
	"fmt"
	"slices"

	"sassi/internal/sass"
)

// The execution core runs a predecoded form of the kernel, not its
// sass.Instructions: at a kernel's first launch the SASS is lowered into a
// dense flat format — operand kinds resolved (RZ folded to zero,
// constant-bank offsets bounds-checked once, predicate guards pre-split),
// scoreboard slot lists precomputed, and static issue costs and result
// latencies cached. Execution then dispatches on a small class enum to one
// row kernel per class, run over every executing lane's register rows,
// instead of per-operand switches and closure iterators. The core takes no
// static-analysis facts: a lane's result is computed from that lane's
// operands even where the value lattice proves every lane holds the same
// ones, so a handler or fault that changes one lane's copy propagates as
// it does in the reference interpreter. Every ALU and SETP opcode has a
// class, whatever its modifiers and operands; execOp keeps the warp-level
// operations — divergence-stack and call control, barriers, collectives,
// atomics and memory shapes no class takes. A SASSI handler call has a
// class too: its symbol is resolved once per launch, not per call. A
// kernel whose resource fields sass.Kernel.CheckResources refuses, with an
// instruction sass.Kernel.CheckInstr refuses — the rule sets Verify judges
// it by too — or whose register figure is past the kernel's count is
// refused at launch (preKernel.err), before any state is sized from it,
// whichever loop runs it.
//
// Everything observable — architectural state, KernelStats (including
// cycles and scoreboard stalls), obs metrics, PC samples — is bit-equal
// to the reference interpreter (Device.Reference, installed by package
// simref for the equivalence oracles): stepPre replicates step's
// accounting exactly and warps still issue one instruction per round-robin
// sweep, because any cross-warp batching would reorder the per-SM memory
// access stream and change cache statistics. A warp's instructions issue
// back-to-back only when it is its SM's single live warp and no CTAs are
// pending, where no other warp can observe the interleaving.

// preClass selects a specialized execution path in stepPre. pcGeneric
// delegates to execOp.
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
	pcBFE   // bit-field extract
	pcBFI   // bit-field insert
	pcFLO   // find leading one
	pcPOPC  // population count
	pcF2I   // float to int32, saturating
	pcI2F   // int32 or (.U32) uint32 to float
	pcMemG  // LD/ST/LDG/STG: generic/global access, batched when all-global
	pcMemS  // LDS/STS
	pcMemL  // LDL/STL
	pcIADDC // IADD with .CC and/or .X: the 64-bit carry chain
	pcPSETP // predicate logic
	pcP2R   // predicate file or (.X) CC into a GPR under a mask
	pcR2P   // GPR into the predicate file or (.X) CC under a mask
	pcBRA   // predicated branch with a label target
	pcSYNC  // reconvergence pop
	pcJCAL  // handler call; target indexes preKernel.syms
	pcFault // ALU instruction with an unreadable value source: fails when it executes
)

// preSrcKind is a resolved operand kind.
type preSrcKind uint8

const (
	psZero preSrcKind = iota // RZ or absent operand
	psReg
	psImm
	psCMem // constant-bank word, offset validated at predecode
	psSR   // special register (thread identity, clock, ...)
	psPred // predicate evaluated to 0/1 (ReadSrc semantics)
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
	pfInjected                // SASSI-injected instruction
	pfStraight                // always advances PC+1 and cannot block the warp
	pfSetCC                   // pcIADDC: writes the condition code
	pfX                       // pcIADDC: consumes the carry bit; pcP2R/pcR2P: CC, not predicates
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
	// sources, CC on .X/.CC): the consider set is preKernel.slots[sb:][:nsrc],
	// the retire set the ndst slots after it.
	sb         uint32
	nsrc, ndst uint8

	// Specialized-class modifiers.
	cmp      sass.CmpOp
	logic    sass.LogicOp
	mufu     sass.MufuFunc
	unsigned bool
	negB     bool

	// target is the branch destination PC (pcBRA), or the index of the
	// called symbol in preKernel.syms (pcJCAL).
	target int32

	// Memory classes.
	memBase uint8 // address base register (RZ when absolute)
	memOff  int64
	memE    bool // 64-bit address in a register pair
	width   sass.Width
	nbytes  uint8
	store   bool
	dataReg uint8 // store data base register
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
	// slots holds every instruction's scoreboard slot lists, one after
	// another (preInstr.sb).
	slots []uint16
	// sbSlots is the size of a warp's scoreboard for k: a slot per GPR up
	// to the highest any instruction names (sass.Kernel.CheckInstr's
	// figure), then the predicates and the CC.
	sbSlots int
	// sitePCs, when k is a kernel with injected after-blocks (TwinSite),
	// holds the index of each of its other instructions, in order, and then
	// len(k.Instrs): the i-th one's after-block lies between sitePCs[i] and
	// sitePCs[i+1]. Nil when k has no injected instruction, or one that is
	// no such block (afterBlocks).
	sitePCs []int32
	// syms are the handler symbols k's JCALs name, in order of first use.
	// A launch resolves them against the warp's program (warpCode.handlerIDs):
	// the same kernel may be linked into more than one program.
	syms []string
	// err, when non-nil, is why k cannot run: what
	// sass.Kernel.CheckResources finds, or else the first instruction
	// sass.Kernel.CheckInstr refuses or whose register figure is past the
	// registers a thread gets. Nothing else is filled in then.
	err error
}

// straightLine reports whether the op always advances PC+1 and can
// neither block the warp nor redirect control (afterBlocks).
func straightLine(op sass.Opcode) bool {
	switch op {
	case sass.OpBRA, sass.OpSYNC, sass.OpEXIT,
		sass.OpCAL, sass.OpRET, sass.OpJCAL, sass.OpBAR:
		return false
	}
	return true
}

// predecode lowers one kernel into the dense format (the build function of
// sass.Kernel.Lowered), or records why it cannot run. Constant-bank
// offsets are validated against the size every launch of the kernel uses,
// a function of its parameter layout.
func predecode(k *sass.Kernel) any {
	if err := k.CheckResources(); err != nil {
		return &preKernel{k: k, err: err}
	}
	regs, gprs := max(k.NumRegs, sass.MinRegs), 0
	for i := range k.Instrs {
		n, err := k.CheckInstr(i)
		if err == nil && n > regs {
			err = fmt.Errorf("names R%d, the kernel has %d registers", n-1, regs)
		}
		if err != nil {
			return &preKernel{k: k, err: fmt.Errorf("pc=%d: %v", i, err)}
		}
		gprs = max(gprs, n)
	}
	// The built-in workloads' instructions name 2.9 slots on average.
	pk := &preKernel{k: k, ins: make([]preInstr, len(k.Instrs)), sbSlots: gprs + sbTail,
		slots: make([]uint16, 0, 4*len(k.Instrs))}
	cbSize := constBankSize(k)
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
		if in.Mods.SetCC {
			p.flags |= pfSetCC
		}
		if in.Mods.X {
			p.flags |= pfX
		}
		p.staticCost = uint8(sass.IssueCost(in))
		p.resLat = uint8(sass.ResultLatency(in))
		pk.slots = p.fillScoreboard(pk.slots, in, gprs)
		p.fillOperands(in)
		if p.class == pcJCAL {
			t, _ := in.BranchTarget()
			p.target = int32(slices.Index(pk.syms, t.Name))
			if p.target < 0 {
				p.target = int32(len(pk.syms))
				pk.syms = append(pk.syms, t.Name)
			}
		}
	}
	pk.sitePCs = afterBlocks(pk.ins)
	return pk
}

// afterBlocks returns preKernel.sitePCs for a kernel predecoded as ins. A
// block must follow an instruction that always goes on to the next one, so
// that the block runs whenever that instruction does.
func afterBlocks(ins []preInstr) []int32 {
	originals := 0
	for i := range ins {
		if ins[i].flags&pfInjected == 0 {
			originals++
		}
	}
	if originals == len(ins) || ins[0].flags&pfInjected != 0 {
		return nil
	}
	pcs := make([]int32, 0, originals+1)
	for i := range ins {
		switch {
		case ins[i].flags&pfInjected == 0:
			pcs = append(pcs, int32(i))
		case ins[i-1].flags&(pfInjected|pfStraight) == 0:
			return nil
		}
	}
	return append(pcs, int32(len(ins)))
}

// aluClasses maps every ALU and SETP opcode to its class. IADD with a .CC
// or .X is pcIADDC instead; any other opcode ignores both.
var aluClasses = [...]preClass{
	sass.OpMOV: pcMOV, sass.OpMOV32: pcMOV, sass.OpS2R: pcMOV, sass.OpF2F: pcMOV,
	sass.OpIADD: pcIADD, sass.OpIADD32: pcIADD, sass.OpIMUL: pcIMUL, sass.OpIMAD: pcIMAD,
	sass.OpISCADD: pcISCADD, sass.OpSHL: pcSHL, sass.OpSHR: pcSHR, sass.OpLOP: pcLOP,
	sass.OpSEL: pcSEL, sass.OpISETP: pcISETP, sass.OpFSETP: pcFSETP, sass.OpFADD: pcFADD,
	sass.OpFMUL: pcFMUL, sass.OpFFMA: pcFFMA, sass.OpIMNMX: pcIMNMX, sass.OpFMNMX: pcFMNMX,
	sass.OpMUFU: pcMUFU, sass.OpBFE: pcBFE, sass.OpBFI: pcBFI, sass.OpFLO: pcFLO,
	sass.OpPOPC: pcPOPC, sass.OpF2I: pcF2I, sass.OpI2F: pcI2F,
	sass.OpPSETP: pcPSETP, sass.OpP2R: pcP2R, sass.OpR2P: pcR2P,
}

// classify picks an instruction's class. Every ALU and SETP opcode has
// one, whatever its modifiers; one with a value source that cannot be read
// — a constant-bank word past the bank, an operand kind that is no value —
// is pcFault. The rest are pcGeneric unless a specialized class takes them.
func classify(in *sass.Instruction, cbSize int) preClass {
	if int(in.Op) < len(aluClasses) && aluClasses[in.Op] != pcGeneric {
		for _, o := range in.Srcs[:valueSrcs(in.Op)] {
			if !srcOK(o, cbSize) {
				return pcFault
			}
		}
		if in.Op == sass.OpIADD || in.Op == sass.OpIADD32 {
			if in.Mods.SetCC || in.Mods.X {
				return pcIADDC
			}
		}
		return aluClasses[in.Op]
	}
	switch in.Op {
	case sass.OpBRA:
		if t, ok := in.BranchTarget(); ok && t.Kind == sass.OpdLabel {
			return pcBRA
		}
	case sass.OpSYNC:
		return pcSYNC
	case sass.OpJCAL:
		if t, ok := in.BranchTarget(); ok && t.Kind == sass.OpdSym {
			return pcJCAL
		}
	case sass.OpLD, sass.OpST, sass.OpLDG, sass.OpSTG:
		// A warp access moves whole register rows, or the low bytes of one.
		if n := in.Mods.Width.Bytes(); memOK(in) && (n <= 2 || n%4 == 0 && n <= 16) {
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

// valueSrcs is how many leading sources an ALU or SETP opcode reads as
// 32-bit values; the operand after them, if any, is a predicate. S2R reads
// its special register and PSETP its predicates whatever the operand kind.
func valueSrcs(op sass.Opcode) int {
	switch op {
	case sass.OpS2R, sass.OpPSETP:
		return 0
	case sass.OpMOV, sass.OpMOV32, sass.OpF2F, sass.OpMUFU, sass.OpF2I, sass.OpI2F,
		sass.OpFLO, sass.OpPOPC:
		return 1
	case sass.OpIMAD, sass.OpISCADD, sass.OpFFMA, sass.OpBFI:
		return 3
	}
	return 2
}

// srcOK reports whether a value source can be read: a register, an
// immediate, a special register, a predicate, or a constant-bank word
// inside the bank.
func srcOK(o sass.Operand, cbSize int) bool {
	switch o.Kind {
	case sass.OpdReg, sass.OpdImm, sass.OpdSReg, sass.OpdPred:
		return true
	case sass.OpdCMem:
		return o.Imm >= 0 && o.Imm+4 <= int64(cbSize)
	}
	return false
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

// resolveSrc lowers one value source, which srcOK admitted.
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
	}
	return predSrc(o)
}

// predSrc reads operand o as the predicate its register field names.
func predSrc(o sass.Operand) preSrc { return preSrc{kind: psPred, reg: o.Reg, neg: o.Neg} }

// fillOperands resolves the class-specific operand fields. An ALU
// instruction's destination is its first operand's register whatever the
// operand's kind, and operands past the ones its opcode reads are ignored,
// as the reference interpreter does.
func (p *preInstr) fillOperands(in *sass.Instruction) {
	p.dst = sass.RZ
	p.dstP = sass.PT
	p.dstQ = sass.PT
	switch {
	case p.class == pcGeneric || p.class == pcSYNC || p.class == pcJCAL || p.class == pcFault:
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
		return
	case p.class == pcISETP || p.class == pcFSETP:
		p.dstP = in.Dsts[0].Reg
		if len(in.Dsts) > 1 && in.Dsts[1].Kind == sass.OpdPred {
			p.dstQ = in.Dsts[1].Reg
		}
	case p.class == pcPSETP:
		p.dstP = in.Dsts[0].Reg
	case p.class == pcR2P:
		// Writes predicates or CC only.
	case p.class == pcLOP && in.Mods.Logic > sass.LogicNOT:
		// An operator outside the enum writes nothing.
	default:
		p.dst = in.Dsts[0].Reg
	}
	n := valueSrcs(in.Op)
	for i := range n {
		p.srcs[i] = resolveSrc(in.Srcs[i])
	}
	switch in.Op {
	case sass.OpS2R:
		p.srcs[0] = preSrc{kind: psSR, sr: in.Srcs[0].SR}
	case sass.OpPSETP:
		p.srcs[0], p.srcs[1] = predSrc(in.Srcs[0]), predSrc(in.Srcs[1])
	case sass.OpSEL:
		p.srcs[2] = predSrc(in.Srcs[2])
	case sass.OpISETP, sass.OpFSETP, sass.OpIMNMX, sass.OpFMNMX:
		// An absent selector, or one that is no predicate, reads as PT.
		p.srcs[2] = preSrc{kind: psPred, reg: sass.PT}
		if len(in.Srcs) > 2 && in.Srcs[2].Kind == sass.OpdPred {
			p.srcs[2] = predSrc(in.Srcs[2])
		}
	}
	p.cmp = in.Mods.Cmp
	p.logic = in.Mods.Logic
	p.mufu = in.Mods.Mufu
	p.unsigned = in.Mods.Unsigned
	p.negB = in.Mods.NegB
}

// fillScoreboard appends the consider and retire slot lists to slots and
// records where they are (sb, nsrc, ndst), mirroring Warp.scoreboard's
// instruction walks; the predicate and CC slots follow the kernel's gprs
// GPR slots.
func (p *preInstr) fillScoreboard(slots []uint16, in *sass.Instruction, gprs int) []uint16 {
	predBase, ccSlot := gprs, gprs+sass.NumPred
	var buf [24]uint8
	start := len(slots)
	list := start
	add := func(slot int) {
		if !slices.Contains(slots[list:], uint16(slot)) {
			slots = append(slots, uint16(slot))
		}
	}
	for _, r := range in.AppendGPRSrcs(buf[:0]) {
		if r != sass.RZ {
			add(int(r))
		}
	}
	for _, r := range in.AppendGPRDsts(buf[:0]) {
		if r != sass.RZ {
			add(int(r)) // WAW: the previous write must retire first
		}
	}
	if !in.Guard.IsAlways() && in.Guard.Reg != sass.PT {
		add(predBase + int(in.Guard.Reg))
	}
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdPred && s.Reg != sass.PT {
			add(predBase + int(s.Reg))
		}
	}
	if in.Mods.X || in.Mods.SetCC {
		add(ccSlot)
	}
	list = len(slots)
	for _, d := range in.AppendGPRDsts(buf[:0]) {
		if d != sass.RZ {
			add(int(d))
		}
	}
	for _, d := range in.Dsts {
		if d.Kind == sass.OpdPred && d.Reg != sass.PT {
			add(predBase + int(d.Reg))
		}
	}
	if in.Mods.SetCC {
		add(ccSlot)
	}
	p.sb, p.nsrc, p.ndst = uint32(start), uint8(list-start), uint8(len(slots)-list)
	return slots
}
