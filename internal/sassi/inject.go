package sassi

import (
	"errors"

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

	out      []sass.Instruction
	pos      int // input instruction being rewritten
	maxFrame int64

	// Instrumentation-time accounting, published to opts.Metrics at the end
	// of instrumentKernel. saveRestore is the ABI spill/fill share of
	// injected — the quantity behind the paper's §9.1 observation that most
	// instrumentation overhead is state save/restore, not handler work.
	injected    uint64
	saveRestore uint64
	injBySym    map[string]uint64
}

// push appends to out, which starts at the kernel's own length. When that
// runs out, out is re-sized for the whole kernel from the expansion seen
// so far in it — the first pos+1 input instructions became len(out) —
// rather than creeping up through a 10–50x expansion a quarter at a time.
// Sites can cluster (loads at the top of a kernel), so one step never more
// than quadruples.
func (ij *injector) push(in sass.Instruction) {
	if len(ij.out) == cap(ij.out) {
		n := len(ij.k.Instrs)
		want := min(len(ij.out)*n/(ij.pos+1), 4*len(ij.out))
		grown := make([]sass.Instruction, len(ij.out), want+want/8+n-ij.pos)
		copy(grown, ij.out)
		ij.out = grown
	}
	ij.out = append(ij.out, in)
}

func (ij *injector) emit(in sass.Instruction) {
	in.Injected = true
	ij.push(in)
}

func (ij *injector) emitOp(op sass.Opcode, mods sass.Mods, dsts, srcs []sass.Operand) {
	ij.emit(sass.Instruction{Guard: sass.Always, Op: op, Mods: mods, Dsts: dsts, Srcs: srcs})
}

// movImm materializes a 32-bit immediate into reg.
func (ij *injector) movImm(reg uint8, v int32) {
	ij.emitOp(sass.OpMOV32, sass.Mods{}, []sass.Operand{sass.R(reg)},
		[]sass.Operand{sass.Imm(int64(v))})
}

// stl stores reg to [R1+off].
func (ij *injector) stl(off int64, reg uint8) {
	ij.emitOp(sass.OpSTL, sass.Mods{}, nil,
		[]sass.Operand{sass.Mem(sass.SP, off), sass.R(reg)})
}

// stl64 stores the (reg,reg+1) pair to [R1+off].
func (ij *injector) stl64(off int64, reg uint8) {
	ij.emitOp(sass.OpSTL, sass.Mods{Width: sass.W64}, nil,
		[]sass.Operand{sass.Mem(sass.SP, off), sass.R(reg)})
}

// ldl loads [R1+off] into reg.
func (ij *injector) ldl(off int64, reg uint8) {
	ij.emitOp(sass.OpLDL, sass.Mods{}, []sass.Operand{sass.R(reg)},
		[]sass.Operand{sass.Mem(sass.SP, off)})
}

// field materializes an immediate into a BeforeParams field via R4.
func (ij *injector) field(off int64, v int32) {
	ij.movImm(4, v)
	ij.stl(off, 4)
}

// instrumentKernel rewrites one kernel. It returns the number of sites it
// injected and the output position of each input instruction (the remap
// table), which the verifier uses to tell this pass's additions apart from
// the input — the Injected flags alone cannot, once passes stack.
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

	ij := &injector{prog: prog, k: k, opts: opts, out: make([]sass.Instruction, 0, len(k.Instrs))}
	remap := make([]int, len(k.Instrs)+1)
	// origAt[i] = output position of input instruction i itself; remap[i]
	// points before i's injected before-site code (where labels land).
	origAt := make([]int, len(k.Instrs))
	sites := int32(0)

	selected := func(i int) bool {
		if opts.Select != nil && !opts.Select(k, i, &k.Instrs[i]) {
			return false
		}
		return true
	}

	for i := range k.Instrs {
		remap[i] = len(ij.out)
		ij.pos = i
		in := &k.Instrs[i]

		before := opts.beforeSite(in) ||
			(opts.Where&KernelEntry != 0 && i == 0) ||
			(opts.Where&BBHeaders != 0 && blockStart[i])
		if before && opts.BeforeHandler != "" && selected(i) {
			ij.injectCall(i, in, li.LiveIn[i], siteBase+sites, ki, opts.BeforeHandler, false)
			sites++
		}

		origAt[i] = len(ij.out)
		ij.push(*in) // the original instruction, untouched

		if opts.afterSite(in) && opts.AfterHandler != "" && selected(i) {
			var liveAfter sass.RegSet
			if i+1 < len(k.Instrs) {
				liveAfter = li.LiveIn[i+1]
			}
			ij.injectCall(i, in, liveAfter, siteBase+sites, ki, opts.AfterHandler, true)
			sites++
		}
	}
	remap[len(k.Instrs)] = len(ij.out)

	// Rewrite label operands and the label map through the remap table.
	for idx := range ij.out {
		for s := range ij.out[idx].Srcs {
			o := &ij.out[idx].Srcs[s]
			if o.Kind == sass.OpdLabel && o.Imm >= 0 && int(o.Imm) < len(remap) {
				o.Imm = int64(remap[o.Imm])
			}
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

// injectCall emits the full ABI-compliant call sequence for one site.
// live is the register set that must survive the call; in/origIdx identify
// the instrumented instruction (by its position in the ORIGINAL kernel, so
// handler-visible addresses are stable across instrumentation configs).
func (ij *injector) injectCall(origIdx int, in *sass.Instruction, live sass.RegSet, siteID int32, ki int, handlerSym string, after bool) {
	extra := ij.extraSize(in)
	frame := frameSize(extra)
	if frame > ij.maxFrame {
		ij.maxFrame = frame
	}
	callStart := len(ij.out)

	// (1) Allocate the stack frame.
	ij.emitOp(sass.OpIADD, sass.Mods{}, []sass.Operand{sass.R(sass.SP)},
		[]sass.Operand{sass.R(sass.SP), sass.Imm(-frame)})

	// (2) Spill the live registers the handler may clobber. Only registers
	// below HandlerMaxRegs need saving: the handler is compiled with
	// -maxrregcount=16 (§3.2 of the paper).
	var spillSet sass.RegSet
	for _, r := range live.Regs() {
		if r == sass.SP {
			continue
		}
		if int(r) < HandlerMaxRegs {
			spillSet.Add(r)
		}
	}
	// The memory-address materialization below replicates the original
	// address arithmetic, but it runs after P2R has overwritten R3 with the
	// predicate snapshot. If the address depends on R3's original value,
	// spill it even when dead so the materialization can reload it.
	if extra > 0 && ij.opts.What&PassMemoryInfo != 0 && in.Op.IsMem() {
		for _, r := range memAddrRegs(in) {
			if r == scratchPred {
				spillSet.Add(r)
			}
		}
	}
	spillRegs := spillSet.Regs()
	spillOff := make(map[uint8]int64, len(spillRegs))
	for slot, r := range spillRegs {
		spillOff[r] = bpGPRSpill + int64(slot)*4
		ij.stl(spillOff[r], r)
	}
	// Predicates and condition code ride through R3 (already spilled if
	// it was live).
	ij.emitOp(sass.OpP2R, sass.Mods{}, []sass.Operand{sass.R(scratchPred)},
		[]sass.Operand{sass.R(sass.RZ), sass.Imm(0xff)})
	ij.stl(bpPRSpill, scratchPred)
	ij.emitOp(sass.OpP2R, sass.Mods{X: true}, []sass.Operand{sass.R(scratchPred)},
		[]sass.Operand{sass.R(sass.RZ), sass.Imm(0xf)})
	ij.stl(bpCCSpill, scratchPred)

	// (3) Data that depends on original register/predicate state must be
	// captured before scratch registers are reused: the extra object's
	// address computation and the will-execute flag.
	if extra > 0 {
		ij.materializeExtra(origIdx, in, int64(bpSize), spillOff)
	}
	ij.willExecute(in)

	// (4) Static BeforeParams fields.
	ij.field(bpID, siteID)
	ij.field(bpFnAddr, FnAddr(ki))
	ij.field(bpInsOffset, sass.InsOffset(origIdx))
	ij.field(bpInsEncoding, int32(sass.EncodeSummary(in)))
	ij.field(bpSpillCount, int32(len(spillRegs)))
	var packed [4]int32
	for i := range packed {
		packed[i] = -1 // 0xffffffff: empty slots
	}
	for slot, r := range spillRegs {
		word := slot / 4
		shift := uint(slot%4) * 8
		packed[word] &^= int32(0xff) << shift
		packed[word] |= int32(r) << shift
	}
	for w, v := range packed {
		ij.field(bpSpillRegs+int64(w)*4, v)
	}

	// (5) Argument pointers: generic addresses of the stack objects.
	ij.emitOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR},
		[]sass.Operand{sass.R(ABIArg0)},
		[]sass.Operand{sass.R(sass.SP), sass.CMem(0, sass.CBStackBase)})
	ij.movImm(ABIArg0+1, 0)
	if extra > 0 {
		ij.emitOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR},
			[]sass.Operand{sass.R(ABIArg1)},
			[]sass.Operand{sass.R(sass.SP), sass.CMem(0, sass.CBStackBase)})
		ij.emitOp(sass.OpIADD, sass.Mods{}, []sass.Operand{sass.R(ABIArg1)},
			[]sass.Operand{sass.R(ABIArg1), sass.Imm(int64(bpSize))})
	} else {
		ij.movImm(ABIArg1, 0)
	}
	ij.movImm(ABIArg1+1, 0)

	// (6) The call.
	ij.prog.InternHandler(handlerSym)
	ij.emitOp(sass.OpJCAL, sass.Mods{}, nil, []sass.Operand{sass.Sym(handlerSym)})

	// (7) Restore: predicates and CC first (through R3), then GPRs —
	// restoring R3's own value last — and release the frame.
	ij.ldl(bpPRSpill, scratchPred)
	ij.emitOp(sass.OpR2P, sass.Mods{}, nil,
		[]sass.Operand{sass.R(scratchPred), sass.Imm(0x7f)})
	ij.ldl(bpCCSpill, scratchPred)
	ij.emitOp(sass.OpR2P, sass.Mods{X: true}, nil,
		[]sass.Operand{sass.R(scratchPred), sass.Imm(0xf)})
	for slot, r := range spillRegs {
		ij.ldl(bpGPRSpill+int64(slot)*4, r)
	}
	ij.emitOp(sass.OpIADD, sass.Mods{}, []sass.Operand{sass.R(sass.SP)},
		[]sass.Operand{sass.R(sass.SP), sass.Imm(frame)})

	// Account the site: everything emitted since callStart is injected; the
	// save/restore share is the two frame adjusts, the GPR spill/fill pairs,
	// and the four P2R/R2P snapshots with their STL/LDL companions.
	ij.injected += uint64(len(ij.out) - callStart)
	ij.saveRestore += 10 + 2*uint64(len(spillRegs))
	if ij.injBySym == nil {
		ij.injBySym = make(map[string]uint64)
	}
	ij.injBySym[handlerSym] += uint64(len(ij.out) - callStart)
}

// extraSize returns the byte size of the site's extra parameter object.
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

// willExecute stores the instrWillExecute flag, evaluating the original
// instruction's guard exactly as Figure 2 does with a pair of predicated
// IADDs.
func (ij *injector) willExecute(in *sass.Instruction) {
	if in.Guard.IsAlways() {
		ij.field(bpWillExec, 1)
		return
	}
	g := in.Guard
	ij.emit(sass.Instruction{Guard: g, Op: sass.OpIADD,
		Dsts: []sass.Operand{sass.R(4)},
		Srcs: []sass.Operand{sass.R(sass.RZ), sass.Imm(1)}})
	ij.emit(sass.Instruction{Guard: sass.PredGuard{Reg: g.Reg, Neg: !g.Neg}, Op: sass.OpIADD,
		Dsts: []sass.Operand{sass.R(4)},
		Srcs: []sass.Operand{sass.R(sass.RZ), sass.Imm(0)}})
	ij.stl(bpWillExec, 4)
}

// memAddrRegs returns the GPRs whose original values the memory-params
// materialization reads: the address base register and, for an extended
// (64-bit) reference, the high half of the base pair.
func memAddrRegs(in *sass.Instruction) []uint8 {
	for _, s := range in.Srcs {
		if s.Kind != sass.OpdMem || s.Reg == sass.RZ {
			continue
		}
		if in.Mods.E {
			return []uint8{s.Reg, s.Reg + 1}
		}
		return []uint8{s.Reg}
	}
	return nil
}

// materializeExtra builds the extra parameter object at [R1+base].
// spillOff maps spilled registers to their frame slots, for reloading
// original values that injected code has since overwritten.
func (ij *injector) materializeExtra(origIdx int, in *sass.Instruction, base int64, spillOff map[uint8]int64) {
	switch {
	case ij.opts.What&PassMemoryInfo != 0 && in.Op.IsMem():
		ij.materializeMemParams(in, base, spillOff)
	case ij.opts.What&PassCondBranchInfo != 0 && in.IsCondBranch():
		ij.materializeCondBranchParams(origIdx, in, base)
	case ij.opts.What&PassRegisterInfo != 0:
		ij.materializeRegParams(in, base)
	}
}

// materializeMemParams computes the effective address into (R6,R7) by
// replicating the original address arithmetic (Figure 2 step 5) and fills
// in the static width/properties/domain fields.
func (ij *injector) materializeMemParams(in *sass.Instruction, base int64, spillOff map[uint8]int64) {
	var ref sass.Operand
	hasRef := false
	for _, s := range in.Srcs {
		if s.Kind == sass.OpdMem {
			ref = s
			hasRef = true
			break
		}
	}
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
	switch {
	case !hasRef:
		ij.movImm(6, 0)
		ij.movImm(7, 0)
	case in.Mods.E:
		// 64-bit base pair + displacement.
		lo := origReg(ref.Reg, 6)
		ij.emitOp(sass.OpIADD, sass.Mods{SetCC: true}, []sass.Operand{sass.R(6)},
			[]sass.Operand{sass.R(lo), sass.Imm(ref.Imm)})
		hi := sass.Operand(sass.R(sass.RZ))
		if ref.Reg != sass.RZ {
			hi = sass.R(origReg(ref.Reg+1, 7))
		}
		ij.emitOp(sass.OpIADD, sass.Mods{X: true}, []sass.Operand{sass.R(7)},
			[]sass.Operand{hi, sass.R(sass.RZ)})
	case in.Op == sass.OpLDL || in.Op == sass.OpSTL:
		// Local offset -> generic address through the local window base.
		ij.emitOp(sass.OpIADD, sass.Mods{}, []sass.Operand{sass.R(6)},
			[]sass.Operand{sass.R(origReg(ref.Reg, 6)), sass.Imm(ref.Imm)})
		ij.emitOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, []sass.Operand{sass.R(6)},
			[]sass.Operand{sass.R(6), sass.CMem(0, sass.CBStackBase)})
		ij.movImm(7, 0)
	case in.Op == sass.OpLDS || in.Op == sass.OpSTS || in.Op == sass.OpATOMS:
		ij.emitOp(sass.OpIADD, sass.Mods{}, []sass.Operand{sass.R(6)},
			[]sass.Operand{sass.R(origReg(ref.Reg, 6)), sass.Imm(ref.Imm)})
		ij.emitOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, []sass.Operand{sass.R(6)},
			[]sass.Operand{sass.R(6), sass.CMem(0, sass.CBSharedBase)})
		ij.movImm(7, 0)
	default:
		// 32-bit base (constant bank and exotic cases): no window.
		ij.emitOp(sass.OpIADD, sass.Mods{}, []sass.Operand{sass.R(6)},
			[]sass.Operand{sass.R(origReg(ref.Reg, 6)), sass.Imm(ref.Imm)})
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
	g := in.Guard
	ij.emit(sass.Instruction{Guard: g, Op: sass.OpIADD,
		Dsts: []sass.Operand{sass.R(6)},
		Srcs: []sass.Operand{sass.R(sass.RZ), sass.Imm(1)}})
	ij.emit(sass.Instruction{Guard: sass.PredGuard{Reg: g.Reg, Neg: !g.Neg}, Op: sass.OpIADD,
		Dsts: []sass.Operand{sass.R(6)},
		Srcs: []sass.Operand{sass.R(sass.RZ), sass.Imm(0)}})
	ij.stl(base+cbDirection, 6)
	takenOff := int32(-1)
	if t, ok := in.BranchTarget(); ok && t.Kind == sass.OpdLabel {
		takenOff = sass.InsOffset(int(t.Imm))
	}
	ij.field(base+cbTakenOffset, takenOff)
	ij.field(base+cbFallOffset, sass.InsOffset(origIdx+1))
}

// materializeRegParams records the instruction's destination and source
// GPR numbers; values are resolved at handler time through the spill map.
func (ij *injector) materializeRegParams(in *sass.Instruction, base int64) {
	dsts := in.GPRDsts()
	if len(dsts) > 4 {
		dsts = dsts[:4]
	}
	ij.field(base+rpNumDsts, int32(len(dsts)))
	for i, r := range dsts {
		ij.field(base+rpDstRegs+int64(i)*4, int32(r))
	}
	srcs := in.GPRSrcs()
	if len(srcs) > 8 {
		srcs = srcs[:8]
	}
	ij.field(base+rpNumSrcs, int32(len(srcs)))
	for i, r := range srcs {
		ij.field(base+rpSrcRegs+int64(i)*4, int32(r))
	}
}
