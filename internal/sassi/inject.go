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
	opts *Options

	// out and ops are the output: the instruction stream, and the arena that
	// holds the operand lists which differ from site to site, each a
	// cap == len sub-slice (so an append to one list can never write into
	// its neighbour). Every other injected list comes from shared. n counts
	// the instructions emitted and narena the arena operands among them;
	// past the end of either buffer (nil while counting) they count on
	// without writing, so the emitter sizes its own output and is never
	// resized for.
	out       []sass.Instruction
	ops       []sass.Operand
	n, narena int
	maxFrame  int64
}

// maxFrameSize is the largest stack frame a site allocates: RegisterParams
// is the largest extra object.
const maxFrameSize = (bpSize + rpSize + 15) &^ 15

// siteLists holds the operand lists that repeat at every site — Figure 2's
// frame adjusts, spills and fills, predicate snapshots, parameter stores,
// guard flags and argument pointers — indexed by what the emitter already
// knows (frame size, spill slot, register, field offset). There is one
// table, shared, built when the package is initialised and never written
// after: every instruction that uses a list holds it as a cap == len slice,
// so injected lists are never written in place.
type siteLists struct {
	frame [2][maxFrameSize/16 + 1][3]sass.Operand // IADD R1, R1, -frame (+frame), by frame/16
	store [maxFrameSize / 4][2]sass.Operand       // STL [R1+off], R4, by off/4
	// slot[s][r] is Rr, [R1+spill slot s], Rr: the fill LDL lists its
	// first two operands, the spill STL its last two.
	slot [HandlerMaxRegs][HandlerMaxRegs][3]sass.Operand
	zero [HandlerMaxRegs][2]sass.Operand    // MOV32I Rr, 0
	flag [HandlerMaxRegs][2][3]sass.Operand // IADD Rr, RZ, v

	// The lists that have no key: the predicate and CC snapshot (P2R, its
	// STL, P2R.X, its STL) and its restore (LDL, R2P, LDL, R2P.X), the
	// stores of the branch direction and the 64-bit address, and the
	// argument pointers (LOP.OR argN, R1, c[0][stack], IADD arg1, arg1,
	// bpSize).
	snapshot, restore [4][]sass.Operand
	direction, addr   []sass.Operand
	argPtr            [2][]sass.Operand
	argOff            []sass.Operand
}

// shared is the table every injector reads.
var shared = newSiteLists()

func newSiteLists() *siteLists {
	t := &siteLists{}
	for i := range t.frame[0] {
		frame := int64(i) * 16
		t.frame[0][i] = [3]sass.Operand{sass.R(sass.SP), sass.R(sass.SP), sass.Imm(-frame)}
		t.frame[1][i] = [3]sass.Operand{sass.R(sass.SP), sass.R(sass.SP), sass.Imm(frame)}
	}
	for i := range t.store {
		t.store[i] = [2]sass.Operand{sass.Mem(sass.SP, int64(i)*4), sass.R(4)}
	}
	for r := range uint8(HandlerMaxRegs) {
		for s := range t.slot {
			t.slot[s][r] = [3]sass.Operand{sass.R(r), sass.Mem(sass.SP, bpGPRSpill+int64(s)*4), sass.R(r)}
		}
		t.zero[r] = [2]sass.Operand{sass.R(r), sass.Imm(0)}
		for v := range t.flag[r] {
			t.flag[r][v] = [3]sass.Operand{sass.R(r), sass.R(sass.RZ), sass.Imm(int64(v))}
		}
	}
	r3 := sass.R(scratchPred)
	t.snapshot = [4][]sass.Operand{
		{r3, sass.R(sass.RZ), sass.Imm(0xff)}, {sass.Mem(sass.SP, bpPRSpill), r3},
		{r3, sass.R(sass.RZ), sass.Imm(0xf)}, {sass.Mem(sass.SP, bpCCSpill), r3},
	}
	t.restore = [4][]sass.Operand{
		{r3, sass.Mem(sass.SP, bpPRSpill)}, {r3, sass.Imm(0x7f)},
		{r3, sass.Mem(sass.SP, bpCCSpill)}, {r3, sass.Imm(0xf)},
	}
	t.direction = []sass.Operand{sass.Mem(sass.SP, bpSize+cbDirection), sass.R(6)}
	t.addr = []sass.Operand{sass.Mem(sass.SP, bpSize+mpAddress), sass.R(6)}
	for i, r := range [2]uint8{ABIArg0, ABIArg1} {
		t.argPtr[i] = []sass.Operand{sass.R(r), sass.R(sass.SP), sass.CMem(0, sass.CBStackBase)}
	}
	t.argOff = []sass.Operand{sass.R(ABIArg1), sass.R(ABIArg1), sass.Imm(bpSize)}
	return t
}

// emit writes one injected instruction whose operands differ from site to
// site, copied into the arena: the first nd are its destinations and the
// rest its sources.
func (ij *injector) emit(g sass.PredGuard, op sass.Opcode, mods sass.Mods, nd int, opds ...sass.Operand) {
	end := ij.narena + len(opds)
	if end <= len(ij.ops) {
		l := ij.ops[ij.narena:end:end]
		copy(l, opds)
		ij.put(g, op, mods, nd, l)
	} else {
		ij.n++
	}
	ij.narena = end
}

// put writes one injected instruction over the operand list l, which it
// shares: the first nd operands are its destinations and the rest its
// sources.
func (ij *injector) put(g sass.PredGuard, op sass.Opcode, mods sass.Mods, nd int, l []sass.Operand) {
	if ij.n < len(ij.out) {
		in := &ij.out[ij.n]
		*in = sass.Instruction{Guard: g, Op: op, Mods: mods, Injected: true, Srcs: l[nd:len(l):len(l)]}
		if nd > 0 {
			in.Dsts = l[:nd:nd]
		}
	}
	ij.n++
}

func (ij *injector) emitOp(op sass.Opcode, mods sass.Mods, nd int, opds ...sass.Operand) {
	ij.emit(sass.Always, op, mods, nd, opds...)
}

func (ij *injector) putOp(op sass.Opcode, mods sass.Mods, nd int, l []sass.Operand) {
	ij.put(sass.Always, op, mods, nd, l)
}

// movImm materializes a 32-bit immediate into reg.
func (ij *injector) movImm(reg uint8, v int32) {
	ij.emitOp(sass.OpMOV32, sass.Mods{}, 1, sass.R(reg), sass.Imm(int64(v)))
}

// movZero clears reg with MOV32I reg, 0.
func (ij *injector) movZero(reg uint8) {
	ij.putOp(sass.OpMOV32, sass.Mods{}, 1, shared.zero[reg][:])
}

// spill stores reg to spill slot s, fill loads it back.
func (ij *injector) spill(s int, reg uint8) {
	ij.putOp(sass.OpSTL, sass.Mods{}, 0, shared.slot[s][reg][1:])
}

func (ij *injector) fill(s int, reg uint8) {
	ij.putOp(sass.OpLDL, sass.Mods{}, 1, shared.slot[s][reg][:2:2])
}

// field materializes an immediate into the parameter field at [R1+off]
// via R4.
func (ij *injector) field(off int64, v int32) {
	ij.movImm(4, v)
	ij.storeField(off)
}

// storeField stores R4 to the parameter field at [R1+off].
func (ij *injector) storeField(off int64) {
	ij.putOp(sass.OpSTL, sass.Mods{}, 0, shared.store[off/4][:])
}

// guardFlag sets reg to 1 on the threads guard g passes for and to 0 on the
// rest, exactly as Figure 2 does with a pair of predicated IADDs.
func (ij *injector) guardFlag(g sass.PredGuard, reg uint8) {
	for i, guard := range [2]sass.PredGuard{g, {Reg: g.Reg, Neg: !g.Neg}} {
		ij.put(guard, sass.OpIADD, sass.Mods{}, 1, shared.flag[reg][1-i][:])
	}
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

// instrumentKernel rewrites one kernel. It returns the number of sites it
// injected and the output position of each input instruction (the remap
// table), which the verifier uses to tell this pass's additions apart from
// the input — the Injected flags alone cannot, once passes stack.
//
// It runs the emitter twice. The first pass, with no buffers, decides
// every site and only counts, which fixes where each input instruction
// lands and the exact size of the output and of its operand arena. The
// second fills both, taking every other injected list from shared, and
// rewrites label operands through the remap table as the original
// instructions are copied (in place: their operand lists are shared with
// the input, which this kernel replaces). Only label operands are
// rewritten, and injected code holds none, so a shared list is never
// written. If a Select callback edits an instruction whose site the first
// pass has counted, the second pass can reach an input instruction away
// from the position the first gave it, or end without filling both buffers
// exactly: either is an *Error, and the kernel is then left unusable, as a
// program is after any failed Instrument.
func instrumentKernel(prog *sass.Program, k *sass.Kernel, ki int, opts *Options, siteBase int32) (int32, []int, error) {
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		return 0, nil, err
	}
	li := analysis.Liveness(cfg)

	blockStart := make([]bool, len(k.Instrs))
	for _, b := range cfg.Blocks {
		if b.Start < len(blockStart) {
			blockStart[b.Start] = true
		}
	}

	ij := &injector{prog: prog, opts: opts}
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
	// The JCAL operand lists of the before and the after handler.
	calls := []sass.Operand{sass.Sym(opts.BeforeHandler), sass.Sym(opts.AfterHandler)}

	for i := range k.Instrs {
		in := &k.Instrs[i]
		remap[i] = ij.n
		before := opts.beforeSite(in) ||
			(opts.Where&KernelEntry != 0 && i == 0) ||
			(opts.Where&BBHeaders != 0 && blockStart[i])
		if before && opts.BeforeHandler != "" && selected(i) {
			ij.injectCall(ij.newSite(i, in, &li.LiveIn[i]), 0, ki, calls[:1:1])
		}
		origAt[i] = ij.n
		ij.n++
		if opts.afterSite(in) && opts.AfterHandler != "" && selected(i) {
			ij.injectCall(ij.newSite(i, in, liveAfter(i)), 0, ki, calls[1:])
		}
	}
	remap[len(k.Instrs)] = ij.n

	ij.out = make([]sass.Instruction, ij.n)
	ij.ops = make([]sass.Operand, ij.narena)
	ij.n, ij.narena = 0, 0
	// Account the sites as they are written: the save/restore share is the
	// two frame adjusts, the GPR spill/fill pairs, and the four P2R/R2P
	// snapshots with their STL/LDL companions — the quantity behind the
	// paper's §9.1 observation that most instrumentation overhead is state
	// save/restore, not handler work.
	sites := int32(0)
	var saveRestore uint64
	var injBySym map[string]uint64
	inject := func(st site, call []sass.Operand) {
		start := ij.n
		ij.injectCall(st, siteBase+sites, ki, call)
		sites++
		saveRestore += 10 + 2*uint64(bits.OnesCount16(st.spills))
		if injBySym == nil {
			injBySym = make(map[string]uint64)
		}
		injBySym[call[0].Name] += uint64(ij.n - start)
	}
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if origAt[i] > remap[i] {
			inject(ij.newSite(i, in, &li.LiveIn[i]), calls[:1:1])
		}
		if ij.n != origAt[i] {
			return 0, nil, &Error{Kernel: k.Name, Site: i, Err: fmt.Errorf(
				"instruction counted at output position %d, emitted at %d", origAt[i], ij.n)}
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
			inject(ij.newSite(i, in, liveAfter(i)), calls[1:])
		}
	}
	if ij.n != len(ij.out) || ij.narena != len(ij.ops) {
		return 0, nil, &Error{Kernel: k.Name, Site: -1, Err: fmt.Errorf(
			"output counted as %d instructions (%d arena operands), emitted %d (%d)",
			len(ij.out), len(ij.ops), ij.n, ij.narena)}
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
		reg.Counter(obs.MSassiInjectedInstrs).Add(uint64(len(ij.out) - len(origAt)))
		reg.Counter(obs.MSassiSaveRestoreInstrs).Add(saveRestore)
		for sym, n := range injBySym {
			reg.Counter(obs.MSassiInjectedPrefix + sym).Add(n)
		}
	}
	return sites, origAt, nil
}

// injectCall emits the full ABI-compliant call sequence for one site: the
// one statement of Figure 2's sequence, which instrumentKernel runs once to
// count and once to write. st.origIdx identifies the instrumented
// instruction by its position in the kernel being instrumented, so
// handler-visible addresses are stable across instrumentation configs. call
// is the JCAL's operand list, which names the handler.
func (ij *injector) injectCall(st site, siteID int32, ki int, call []sass.Operand) {
	in := st.in
	frame := frameSize(st.extra)
	if frame > ij.maxFrame {
		ij.maxFrame = frame
	}

	// (1) Allocate the stack frame.
	ij.putOp(sass.OpIADD, sass.Mods{}, 1, shared.frame[0][frame/16][:])

	// (2) Spill the site's registers, in ascending order, to consecutive
	// slots. Predicates and condition code ride through R3 (already spilled
	// if it was live).
	var spillSlot [HandlerMaxRegs]int
	var spillRegs [HandlerMaxRegs]uint8
	spills := 0
	for m := st.spills; m != 0; m &= m - 1 {
		r := uint8(bits.TrailingZeros16(m))
		spillRegs[spills] = r
		spillSlot[r] = spills
		ij.spill(spills, r)
		spills++
	}
	ij.putOp(sass.OpP2R, sass.Mods{}, 1, shared.snapshot[0])
	ij.putOp(sass.OpSTL, sass.Mods{}, 0, shared.snapshot[1])
	ij.putOp(sass.OpP2R, sass.Mods{X: true}, 1, shared.snapshot[2])
	ij.putOp(sass.OpSTL, sass.Mods{}, 0, shared.snapshot[3])

	// (3) Data that depends on original register/predicate state must be
	// captured before scratch registers are reused: the extra object's
	// address computation and the will-execute flag.
	switch st.extra {
	case mpSize:
		ij.materializeMemParams(in, &spillSlot)
	case cbSize:
		ij.materializeCondBranchParams(st.origIdx, in)
	case rpSize:
		ij.materializeRegParams(in)
	}
	if in.Guard.IsAlways() {
		ij.field(bpWillExec, 1)
	} else {
		ij.guardFlag(in.Guard, 4)
		ij.storeField(bpWillExec)
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
	ij.putOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, 1, shared.argPtr[0])
	ij.movZero(ABIArg0 + 1)
	if st.extra > 0 {
		ij.putOp(sass.OpLOP, sass.Mods{Logic: sass.LogicOR}, 1, shared.argPtr[1])
		ij.putOp(sass.OpIADD, sass.Mods{}, 1, shared.argOff)
	} else {
		ij.movZero(ABIArg1)
	}
	ij.movZero(ABIArg1 + 1)

	// (6) The call.
	ij.prog.InternHandler(call[0].Name)
	ij.putOp(sass.OpJCAL, sass.Mods{}, 0, call)

	// (7) Restore: predicates and CC first (through R3), then GPRs —
	// restoring R3's own value last — and release the frame.
	ij.putOp(sass.OpLDL, sass.Mods{}, 1, shared.restore[0])
	ij.putOp(sass.OpR2P, sass.Mods{}, 0, shared.restore[1])
	ij.putOp(sass.OpLDL, sass.Mods{}, 1, shared.restore[2])
	ij.putOp(sass.OpR2P, sass.Mods{X: true}, 0, shared.restore[3])
	for slot, r := range spillRegs[:spills] {
		ij.fill(slot, r)
	}
	ij.putOp(sass.OpIADD, sass.Mods{}, 1, shared.frame[1][frame/16][:])
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
// width/properties/domain fields. spillSlot maps spilled registers to their
// frame slots. Of its operand lists only the arithmetic's, which are the
// address's, go to the arena.
func (ij *injector) materializeMemParams(in *sass.Instruction, spillSlot *[HandlerMaxRegs]int) {
	const base = bpSize
	ref, form := memAddr(in)
	// By this point R3 holds the predicate snapshot, not its original value.
	// If the address base (or the high half of an extended pair) is R3,
	// reload the original from its spill slot into the scratch register that
	// will receive the result anyway.
	origReg := func(r, scratch uint8) uint8 {
		if r == scratchPred {
			ij.fill(spillSlot[r], scratch)
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
		ij.movZero(6)
		ij.movZero(7)
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
		ij.movZero(7)
	default:
		ij.emitOp(sass.OpIADD, sass.Mods{}, 1, sass.R(6), sass.R(origReg(ref.Reg, 6)), sass.Imm(ref.Imm))
		ij.movZero(7)
	}
	ij.putOp(sass.OpSTL, sass.Mods{Width: sass.W64}, 0, shared.addr)
	ij.field(base+mpProperties, int32(sass.EncodeSummary(in)))
	ij.field(base+mpWidth, int32(in.Mods.Width.Bytes()))
	ij.field(base+mpDomain, domain)
}

// materializeCondBranchParams records the thread's branch direction and the
// static target/fall-through offsets.
func (ij *injector) materializeCondBranchParams(origIdx int, in *sass.Instruction) {
	const base = bpSize
	ij.guardFlag(in.Guard, 6)
	ij.putOp(sass.OpSTL, sass.Mods{}, 0, shared.direction)
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
func (ij *injector) materializeRegParams(in *sass.Instruction) {
	const base = bpSize
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
