package sassi

import (
	"errors"
	"fmt"
	"math/bits"

	"sassi/internal/analysis"
	"sassi/internal/mem"
	"sassi/internal/obs"
	"sassi/internal/sass"
)

// Instrument rewrites every selected kernel of prog in place, injecting
// ABI-compliant handler calls at the sites selected by opts. The original
// instructions are preserved verbatim and in order; only new instructions
// (marked Injected) are inserted around them. Failures are reported as
// *Error carrying the kernel and site position. With opts.Verify enabled,
// the rewritten kernels are statically checked against their originals
// (analysis.VerifyInstrumentedProgram) before Instrument returns.
func Instrument(prog *sass.Program, opts Options) error {
	if opts.BeforeHandler == "" && opts.AfterHandler == "" {
		return &Error{Site: -1, Err: errors.New("no handler symbol given")}
	}
	verify := opts.Verify.Enabled()
	var origs, insts *sass.Program
	var origPos map[string][]int
	if verify {
		origs, insts = sass.NewProgram(), sass.NewProgram()
		origPos = map[string][]int{}
	}
	siteID := int32(0)
	for ki, k := range prog.Kernels {
		if !opts.wantsKernel(k.Name) {
			continue
		}
		var orig *sass.Kernel
		if verify {
			orig = k.Clone()
		}
		t0 := opts.Trace.Now()
		n, remap, err := instrumentKernel(prog, k, ki, &opts, siteID)
		if err != nil {
			var ie *Error
			if errors.As(err, &ie) {
				return err
			}
			return &Error{Kernel: k.Name, Site: -1, Err: err}
		}
		opts.Trace.Span(obs.PidHost, obs.TidHostCompile, "instrument:"+k.Name,
			t0, opts.Trace.Now()-t0, map[string]any{"sites": n})
		siteID += n
		if verify {
			origs.AddKernel(orig)
			insts.AddKernel(k)
			origPos[k.Name] = remap
		}
	}
	if verify {
		diags := analysis.VerifyInstrumentedProgram(origs, insts, Spec(), origPos)
		diags = append(diags, analysis.Verify(prog)...)
		if analysis.HasErrors(diags) {
			return &Error{Site: -1, Err: &analysis.VerifyError{Diags: diags}}
		}
	}
	return nil
}

// FnAddr returns the pseudo base address assigned to kernel index ki; the
// handler-visible instruction address is FnAddr + insOffset.
func FnAddr(ki int) int32 { return int32(ki+1) << 20 }

type injector struct {
	prog *sass.Program
	k    *sass.Kernel
	opts *Options

	// out and ops are the planned output, sized exactly before anything is
	// emitted: the instruction stream, and the arena every injected operand
	// list is a cap == len sub-slice of (so an append to one list can never
	// write into its neighbour). n and nops count what has been emitted;
	// they keep counting past the end without writing, so a site that
	// outruns its plan is reported, never resized for.
	out      []sass.Instruction
	ops      []sass.Operand
	n, nops  int
	maxFrame int64

	// Instrumentation-time accounting, published to opts.Metrics at the end
	// of instrumentKernel. saveRestore is the ABI spill/fill share of
	// injected — the quantity behind the paper's §9.1 observation that most
	// instrumentation overhead is state save/restore, not handler work.
	injected    uint64
	saveRestore uint64
	injBySym    map[string]uint64
}

// emit writes one injected instruction whose first nd operands are its
// destinations and the rest its sources.
func (ij *injector) emit(g sass.PredGuard, op sass.Opcode, mods sass.Mods, nd int, opds ...sass.Operand) {
	if end := ij.nops + len(opds); ij.n < len(ij.out) && end <= len(ij.ops) {
		copy(ij.ops[ij.nops:], opds)
		in := &ij.out[ij.n]
		*in = sass.Instruction{Guard: g, Op: op, Mods: mods, Injected: true,
			Srcs: ij.ops[ij.nops+nd : end : end]}
		if nd > 0 {
			in.Dsts = ij.ops[ij.nops : ij.nops+nd : ij.nops+nd]
		}
	}
	ij.n++
	ij.nops += len(opds)
}

func (ij *injector) emitOp(op sass.Opcode, mods sass.Mods, nd int, opds ...sass.Operand) {
	ij.emit(sass.Always, op, mods, nd, opds...)
}

// movImm materializes a 32-bit immediate into reg.
func (ij *injector) movImm(reg uint8, v int32) {
	ij.emitOp(sass.OpMOV32, sass.Mods{}, 1, sass.R(reg), sass.Imm(int64(v)))
}

// stl stores reg to [R1+off].
func (ij *injector) stl(off int64, reg uint8) {
	ij.emitOp(sass.OpSTL, sass.Mods{}, 0, sass.Mem(sass.SP, off), sass.R(reg))
}

// stl64 stores the (reg,reg+1) pair to [R1+off].
func (ij *injector) stl64(off int64, reg uint8) {
	ij.emitOp(sass.OpSTL, sass.Mods{Width: sass.W64}, 0, sass.Mem(sass.SP, off), sass.R(reg))
}

// ldl loads [R1+off] into reg.
func (ij *injector) ldl(off int64, reg uint8) {
	ij.emitOp(sass.OpLDL, sass.Mods{}, 1, sass.R(reg), sass.Mem(sass.SP, off))
}

// field materializes an immediate into a BeforeParams field via R4.
func (ij *injector) field(off int64, v int32) {
	ij.movImm(4, v)
	ij.stl(off, 4)
}

// guardFlag sets reg to 1 on the threads guard g passes for and to 0 on the
// rest, exactly as Figure 2 does with a pair of predicated IADDs.
func (ij *injector) guardFlag(g sass.PredGuard, reg uint8) {
	ij.emit(g, sass.OpIADD, sass.Mods{}, 1, sass.R(reg), sass.R(sass.RZ), sass.Imm(1))
	ij.emit(sass.PredGuard{Reg: g.Reg, Neg: !g.Neg}, sass.OpIADD, sass.Mods{}, 1,
		sass.R(reg), sass.R(sass.RZ), sass.Imm(0))
}

// seqLen is the planned size of an injected sequence.
type seqLen struct{ instrs, operands int }

// add counts n instructions of opds operands each.
func (l *seqLen) add(n, opds int) {
	l.instrs += n
	l.operands += n * opds
}

// site is one handler call to inject, reduced to what the emitted sequence
// depends on.
type site struct {
	in      *sass.Instruction
	origIdx int    // in's position in the kernel being instrumented
	spills  uint16 // the GPRs below HandlerMaxRegs to preserve, as a mask
	extra   int    // byte size of the extra parameter object, 0 for none
}

func (ij *injector) newSite(origIdx int, in *sass.Instruction, live *sass.RegSet) site {
	st := site{in: in, origIdx: origIdx, extra: ij.extraSize(in)}
	// Spill the live registers the handler may clobber. Only registers
	// below HandlerMaxRegs need saving: the handler is compiled with
	// -maxrregcount=16 (§3.2 of the paper).
	st.spills = uint16(live[0]) & (1<<HandlerMaxRegs - 1) &^ (1 << sass.SP)
	// The memory-address materialization replicates the original address
	// arithmetic, but it runs after P2R has overwritten R3 with the
	// predicate snapshot. If the address depends on R3's original value,
	// spill it even when dead so the materialization can reload it.
	if st.extra == mpSize {
		if usesScratchPred(memAddr(in)) > 0 {
			st.spills |= 1 << scratchPred
		}
	}
	return st
}

// plan returns the exact size of the sequence injectCall emits for st. It
// is stated apart from the emitter, line for line in the same order, so the
// output can be sized before anything is written; injectCall checks the two
// against each other at every site.
func (ij *injector) plan(st site) seqLen {
	var l seqLen
	spills := bits.OnesCount16(st.spills)
	l.add(2, 3)        // (1)+(7) frame allocate and release
	l.add(2*spills, 2) // (2)+(7) one STL and one LDL per spilled GPR
	l.add(2, 3)        // (2) P2R, P2R.X
	l.add(2, 2)        //     and their STLs
	in := st.in
	switch st.extra { // (3)
	case mpSize:
		ref, form := memAddr(in)
		l.add(usesScratchPred(ref, form), 2) // LDL reloads of R3's original value
		switch form {
		case addrNone:
			l.add(2, 2)
		case addrPair:
			l.add(2, 3)
		case addrLocal, addrShared:
			l.add(2, 3)
			l.add(1, 2)
		default:
			l.add(1, 3)
			l.add(1, 2)
		}
		l.add(1+2*3, 2) // STL.64 and three fields
	case cbSize:
		l.add(2, 3)
		l.add(1+2*2, 2)
	case rpSize:
		var buf [32]uint8
		dsts, srcs := regParams(in, &buf)
		l.add(2*(2+len(dsts)+len(srcs)), 2)
	}
	if in.Guard.IsAlways() { // willExecute
		l.add(2, 2)
	} else {
		l.add(2, 3)
		l.add(1, 2)
	}
	l.add(2*9, 2) // (4) nine static fields
	l.add(1, 3)   // (5) LOP.OR arg0, and three or two MOV32I
	if st.extra > 0 {
		l.add(2, 3)
		l.add(2, 2)
	} else {
		l.add(3, 2)
	}
	l.add(1, 1) // (6) JCAL
	l.add(4, 2) // (7) LDL, R2P, LDL, R2P.X
	return l
}

// instrumentKernel rewrites one kernel. It returns the number of sites it
// injected and the output position of each input instruction (the remap
// table), which the verifier uses to tell this pass's additions apart from
// the input — the Injected flags alone cannot, once passes stack.
//
// It works in two passes. The plan pass decides every site and computes its
// length (plan), which fixes where each input instruction lands and the
// exact size of the output and of its operand arena. The emit pass fills
// both, rewriting label operands through the remap table as the original
// instructions are copied (in place: their operand lists are shared with
// the input, which this kernel replaces). A site whose emitted length
// differs from its plan is an *Error; the kernel is then left unusable, as
// a program is after any failed Instrument.
func instrumentKernel(prog *sass.Program, k *sass.Kernel, ki int, opts *Options, siteBase int32) (int32, []int, error) {
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		return 0, nil, err
	}
	li := sass.ComputeLiveness(cfg)

	blockStart := make([]bool, len(k.Instrs))
	for _, b := range cfg.Blocks {
		if b.Start < len(blockStart) {
			blockStart[b.Start] = true
		}
	}

	ij := &injector{prog: prog, k: k, opts: opts}
	// remap[i] is where input instruction i's before-site code starts (where
	// labels land); origAt[i] the output position of instruction i itself.
	// A site exists exactly where the two leave a gap.
	remap := make([]int, len(k.Instrs)+1)
	origAt := make([]int, len(k.Instrs))
	var noneLive sass.RegSet
	liveAfter := func(i int) *sass.RegSet {
		if i+1 < len(k.Instrs) {
			return &li.LiveIn[i+1]
		}
		return &noneLive
	}
	selected := func(i int) bool {
		return opts.Select == nil || opts.Select(k, i, &k.Instrs[i])
	}

	var total seqLen
	planSite := func(st site) {
		l := ij.plan(st)
		total.instrs += l.instrs
		total.operands += l.operands
	}
	for i := range k.Instrs {
		in := &k.Instrs[i]
		remap[i] = total.instrs
		before := opts.beforeSite(in) ||
			(opts.Where&KernelEntry != 0 && i == 0) ||
			(opts.Where&BBHeaders != 0 && blockStart[i])
		if before && opts.BeforeHandler != "" && selected(i) {
			planSite(ij.newSite(i, in, &li.LiveIn[i]))
		}
		origAt[i] = total.instrs
		total.instrs++
		if opts.afterSite(in) && opts.AfterHandler != "" && selected(i) {
			planSite(ij.newSite(i, in, liveAfter(i)))
		}
	}
	remap[len(k.Instrs)] = total.instrs

	ij.out = make([]sass.Instruction, total.instrs)
	ij.ops = make([]sass.Operand, total.operands)
	sites := int32(0)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if origAt[i] > remap[i] {
			if err := ij.injectCall(ij.newSite(i, in, &li.LiveIn[i]), siteBase+sites, ki, opts.BeforeHandler); err != nil {
				return 0, nil, err
			}
			sites++
		}
		if ij.n != origAt[i] {
			return 0, nil, &Error{Kernel: k.Name, Site: i, Err: fmt.Errorf(
				"instruction planned at output position %d, emitted at %d", origAt[i], ij.n)}
		}
		for s := range in.Srcs {
			o := &in.Srcs[s]
			if o.Kind == sass.OpdLabel && o.Imm >= 0 && int(o.Imm) < len(remap) {
				o.Imm = int64(remap[o.Imm])
			}
		}
		ij.out[ij.n] = *in // the original instruction, otherwise untouched
		ij.n++
		if remap[i+1] > origAt[i]+1 {
			if err := ij.injectCall(ij.newSite(i, in, liveAfter(i)), siteBase+sites, ki, opts.AfterHandler); err != nil {
				return 0, nil, err
			}
			sites++
		}
	}

	for name, idx := range k.Labels {
		k.Labels[name] = remap[idx]
	}
	k.Instrs = ij.out
	// The injected stream is no longer the scheduler's permutation of
	// anything: drop the provenance so the schedule check has nothing
	// stale to certify.
	k.SchedOrig = nil
	k.LocalBytes += int(ij.maxFrame)
	if k.NumRegs < HandlerMaxRegs {
		k.NumRegs = HandlerMaxRegs
	}
	if reg := opts.Metrics; reg != nil {
		reg.Counter(obs.MSassiKernels).Inc()
		reg.Counter(obs.MSassiSites).Add(uint64(sites))
		reg.Counter(obs.MSassiInjectedInstrs).Add(ij.injected)
		reg.Counter(obs.MSassiSaveRestoreInstrs).Add(ij.saveRestore)
		for sym, n := range ij.injBySym {
			reg.Counter(obs.MSassiInjectedPrefix + sym).Add(n)
		}
	}
	return sites, origAt, nil
}

// injectCall emits the full ABI-compliant call sequence for one site and
// checks it against the site's plan. st.origIdx identifies the instrumented
// instruction by its position in the kernel being instrumented, so
// handler-visible addresses are stable across instrumentation configs.
func (ij *injector) injectCall(st site, siteID int32, ki int, handlerSym string) error {
	in := st.in
	frame := frameSize(st.extra)
	if frame > ij.maxFrame {
		ij.maxFrame = frame
	}
	startN, startOps := ij.n, ij.nops

	// (1) Allocate the stack frame.
	ij.emitOp(sass.OpIADD, sass.Mods{}, 1, sass.R(sass.SP), sass.R(sass.SP), sass.Imm(-frame))

	// (2) Spill the site's registers, in ascending order, to consecutive
	// slots. Predicates and condition code ride through R3 (already spilled
	// if it was live).
	var spillOff [HandlerMaxRegs]int64
	var spillRegs [HandlerMaxRegs]uint8
	spills := 0
	for m := st.spills; m != 0; m &= m - 1 {
		r := uint8(bits.TrailingZeros16(m))
		spillRegs[spills] = r
		spillOff[r] = bpGPRSpill + int64(spills)*4
		ij.stl(spillOff[r], r)
		spills++
	}
	ij.emitOp(sass.OpP2R, sass.Mods{}, 1, sass.R(scratchPred), sass.R(sass.RZ), sass.Imm(0xff))
	ij.stl(bpPRSpill, scratchPred)
	ij.emitOp(sass.OpP2R, sass.Mods{X: true}, 1, sass.R(scratchPred), sass.R(sass.RZ), sass.Imm(0xf))
	ij.stl(bpCCSpill, scratchPred)

	// (3) Data that depends on original register/predicate state must be
	// captured before scratch registers are reused: the extra object's
	// address computation and the will-execute flag.
	switch st.extra {
	case mpSize:
		ij.materializeMemParams(in, int64(bpSize), &spillOff)
	case cbSize:
		ij.materializeCondBranchParams(st.origIdx, in, int64(bpSize))
	case rpSize:
		ij.materializeRegParams(in, int64(bpSize))
	}
	if in.Guard.IsAlways() {
		ij.field(bpWillExec, 1)
	} else {
		ij.guardFlag(in.Guard, 4)
		ij.stl(bpWillExec, 4)
	}

	// (4) Static BeforeParams fields.
	ij.field(bpID, siteID)
	ij.field(bpFnAddr, FnAddr(ki))
	ij.field(bpInsOffset, sass.InsOffset(st.origIdx))
	ij.field(bpInsEncoding, int32(sass.EncodeSummary(in)))
	ij.field(bpSpillCount, int32(spills))
	var packed [4]int32
	for i := range packed {
		packed[i] = -1 // 0xffffffff: empty slots
	}
	for slot, r := range spillRegs[:spills] {
		word := slot / 4
		shift := uint(slot%4) * 8
		packed[word] &^= int32(0xff) << shift
		packed[word] |= int32(r) << shift
	}
	for w, v := range packed {
		ij.field(bpSpillRegs+int64(w)*4, v)
	}

	// (5) Argument pointers: generic addresses of the stack objects.
	ij.emitOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, 1,
		sass.R(ABIArg0), sass.R(sass.SP), sass.CMem(0, sass.CBStackBase))
	ij.movImm(ABIArg0+1, 0)
	if st.extra > 0 {
		ij.emitOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, 1,
			sass.R(ABIArg1), sass.R(sass.SP), sass.CMem(0, sass.CBStackBase))
		ij.emitOp(sass.OpIADD, sass.Mods{}, 1,
			sass.R(ABIArg1), sass.R(ABIArg1), sass.Imm(int64(bpSize)))
	} else {
		ij.movImm(ABIArg1, 0)
	}
	ij.movImm(ABIArg1+1, 0)

	// (6) The call.
	ij.prog.InternHandler(handlerSym)
	ij.emitOp(sass.OpJCAL, sass.Mods{}, 0, sass.Sym(handlerSym))

	// (7) Restore: predicates and CC first (through R3), then GPRs —
	// restoring R3's own value last — and release the frame.
	ij.ldl(bpPRSpill, scratchPred)
	ij.emitOp(sass.OpR2P, sass.Mods{}, 0, sass.R(scratchPred), sass.Imm(0x7f))
	ij.ldl(bpCCSpill, scratchPred)
	ij.emitOp(sass.OpR2P, sass.Mods{X: true}, 0, sass.R(scratchPred), sass.Imm(0xf))
	for slot, r := range spillRegs[:spills] {
		ij.ldl(bpGPRSpill+int64(slot)*4, r)
	}
	ij.emitOp(sass.OpIADD, sass.Mods{}, 1, sass.R(sass.SP), sass.R(sass.SP), sass.Imm(frame))

	emitted := seqLen{ij.n - startN, ij.nops - startOps}
	if want := ij.plan(st); emitted != want {
		return &Error{Kernel: ij.k.Name, Site: st.origIdx, Err: fmt.Errorf(
			"site planned as %d instructions with %d operands, emitted %d with %d",
			want.instrs, want.operands, emitted.instrs, emitted.operands)}
	}

	// Account the site: everything emitted is injected; the save/restore
	// share is the two frame adjusts, the GPR spill/fill pairs, and the
	// four P2R/R2P snapshots with their STL/LDL companions.
	ij.injected += uint64(emitted.instrs)
	ij.saveRestore += 10 + 2*uint64(spills)
	if ij.injBySym == nil {
		ij.injBySym = make(map[string]uint64)
	}
	ij.injBySym[handlerSym] += uint64(emitted.instrs)
	return nil
}

// extraSize returns the byte size of the site's extra parameter object,
// which also identifies its kind: the three sizes differ.
func (ij *injector) extraSize(in *sass.Instruction) int {
	switch {
	case ij.opts.What&PassMemoryInfo != 0 && in.Op.IsMem():
		return mpSize
	case ij.opts.What&PassCondBranchInfo != 0 && in.IsCondBranch():
		return cbSize
	case ij.opts.What&PassRegisterInfo != 0:
		return rpSize
	}
	return 0
}

// addrForm is how a memory instruction forms its address, which decides the
// arithmetic materializeMemParams replicates.
type addrForm uint8

const (
	addrNone   addrForm = iota // no memory-reference operand
	addrPair                   // .E: 64-bit base register pair + displacement
	addrLocal                  // local offset, through the local window base
	addrShared                 // shared offset, through the shared window base
	addr32                     // 32-bit base (constant bank and exotic cases): no window
)

// memAddr returns the instruction's memory-reference operand and its form.
func memAddr(in *sass.Instruction) (sass.Operand, addrForm) {
	for _, s := range in.Srcs {
		if s.Kind != sass.OpdMem {
			continue
		}
		switch {
		case in.Mods.E:
			return s, addrPair
		case in.Op == sass.OpLDL || in.Op == sass.OpSTL:
			return s, addrLocal
		case in.Op == sass.OpLDS || in.Op == sass.OpSTS || in.Op == sass.OpATOMS:
			return s, addrShared
		}
		return s, addr32
	}
	return sass.Operand{}, addrNone
}

// usesScratchPred counts the registers of the address that are R3, whose
// original value the materialization must reload from its spill slot: the
// base, and for a 64-bit pair the high half.
func usesScratchPred(ref sass.Operand, form addrForm) int {
	n := 0
	if ref.Reg == scratchPred {
		n++
	}
	if form == addrPair && ref.Reg != sass.RZ && ref.Reg+1 == scratchPred {
		n++
	}
	return n
}

// materializeMemParams builds the MemoryParams object at [R1+base]: it
// computes the effective address into (R6,R7) by replicating the original
// address arithmetic (Figure 2 step 5) and fills in the static
// width/properties/domain fields. spillOff maps spilled registers to their
// frame slots.
func (ij *injector) materializeMemParams(in *sass.Instruction, base int64, spillOff *[HandlerMaxRegs]int64) {
	ref, form := memAddr(in)
	// By this point R3 holds the predicate snapshot, not its original value.
	// If the address base (or the high half of an extended pair) is R3,
	// reload the original from its spill slot into the scratch register that
	// will receive the result anyway.
	origReg := func(r, scratch uint8) uint8 {
		if r == scratchPred {
			ij.ldl(spillOff[r], scratch)
			return scratch
		}
		return r
	}
	domain := int32(0)
	switch in.Op {
	case sass.OpLDL, sass.OpSTL:
		domain = int32(mem.SpaceLocal)
	case sass.OpLDS, sass.OpSTS, sass.OpATOMS:
		domain = int32(mem.SpaceShared)
	case sass.OpLDG, sass.OpSTG, sass.OpATOM, sass.OpRED, sass.OpTLD:
		domain = int32(mem.SpaceGlobal)
	case sass.OpLDC:
		domain = int32(mem.SpaceConst)
	}
	switch form {
	case addrNone:
		ij.movImm(6, 0)
		ij.movImm(7, 0)
	case addrPair:
		lo := origReg(ref.Reg, 6)
		ij.emitOp(sass.OpIADD, sass.Mods{SetCC: true}, 1, sass.R(6), sass.R(lo), sass.Imm(ref.Imm))
		hi := uint8(sass.RZ)
		if ref.Reg != sass.RZ {
			hi = origReg(ref.Reg+1, 7)
		}
		ij.emitOp(sass.OpIADD, sass.Mods{X: true}, 1, sass.R(7), sass.R(hi), sass.R(sass.RZ))
	case addrLocal, addrShared:
		// Offset -> generic address through the space's window base.
		window := int64(sass.CBStackBase)
		if form == addrShared {
			window = sass.CBSharedBase
		}
		ij.emitOp(sass.OpIADD, sass.Mods{}, 1, sass.R(6), sass.R(origReg(ref.Reg, 6)), sass.Imm(ref.Imm))
		ij.emitOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, 1, sass.R(6), sass.R(6), sass.CMem(0, window))
		ij.movImm(7, 0)
	default:
		ij.emitOp(sass.OpIADD, sass.Mods{}, 1, sass.R(6), sass.R(origReg(ref.Reg, 6)), sass.Imm(ref.Imm))
		ij.movImm(7, 0)
	}
	ij.stl64(base+mpAddress, 6)
	ij.field(base+mpProperties, int32(sass.EncodeSummary(in)))
	ij.field(base+mpWidth, int32(in.Mods.Width.Bytes()))
	ij.field(base+mpDomain, domain)
}

// materializeCondBranchParams records the thread's branch direction and the
// static target/fall-through offsets.
func (ij *injector) materializeCondBranchParams(origIdx int, in *sass.Instruction, base int64) {
	ij.guardFlag(in.Guard, 6)
	ij.stl(base+cbDirection, 6)
	takenOff := int32(-1)
	if t, ok := in.BranchTarget(); ok && t.Kind == sass.OpdLabel {
		takenOff = sass.InsOffset(int(t.Imm))
	}
	ij.field(base+cbTakenOffset, takenOff)
	ij.field(base+cbFallOffset, sass.InsOffset(origIdx+1))
}

// regParams returns the destination and source GPR numbers RegisterParams
// has slots for, built in the two halves of buf.
func regParams(in *sass.Instruction, buf *[32]uint8) (dsts, srcs []uint8) {
	dsts = in.AppendGPRDsts(buf[:0:16])
	if len(dsts) > 4 {
		dsts = dsts[:4]
	}
	srcs = in.AppendGPRSrcs(buf[16:16])
	if len(srcs) > 8 {
		srcs = srcs[:8]
	}
	return dsts, srcs
}

// materializeRegParams records the instruction's destination and source
// GPR numbers; values are resolved at handler time through the spill map.
func (ij *injector) materializeRegParams(in *sass.Instruction, base int64) {
	var buf [32]uint8
	dsts, srcs := regParams(in, &buf)
	ij.field(base+rpNumDsts, int32(len(dsts)))
	for i, r := range dsts {
		ij.field(base+rpDstRegs+int64(i)*4, int32(r))
	}
	ij.field(base+rpNumSrcs, int32(len(srcs)))
	for i, r := range srcs {
		ij.field(base+rpSrcRegs+int64(i)*4, int32(r))
	}
}
