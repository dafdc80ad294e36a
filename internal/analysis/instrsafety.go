package analysis

import (
	"fmt"
	"sort"

	"sassi/internal/sass"
)

// ABISpec describes the instrumentation calling convention the safety
// check verifies against. The instrumentor (internal/sassi) supplies its
// own values; keeping them as data here avoids an import cycle and makes
// the checker reusable for other injector implementations.
type ABISpec struct {
	// StackReg is the ABI stack pointer (R1).
	StackReg uint8
	// HandlerMaxRegs caps the handler's register footprint: live GPRs
	// below it must be saved around a handler call; GPRs at or above it
	// must not be touched by injected code at all while live.
	HandlerMaxRegs int
	// ArgRegs are the registers the ABI passes handler arguments in; all
	// must be written before each handler call.
	ArgRegs []uint8
	// SiteIDOffset is the frame offset holding the site ID; the checker
	// recovers site IDs from immediate stores to it.
	SiteIDOffset int64
	// MinFrame is the smallest legal stack frame at a handler call.
	MinFrame int64
	// FrameAlign is the required frame alignment.
	FrameAlign int64
}

// VerifyInstrumentedProgram diffs an instrumented program against the
// pre-instrumentation original: every kernel present in both is checked
// with VerifyInstrumentedKernel, and the site IDs recovered across the
// whole program must be dense (0..N-1) and unique. origPos, when non-nil,
// maps a kernel name to the output positions of its input instructions
// (see VerifyInstrumentedKernel); the injector records it so that stacked
// instrumentation passes verify correctly.
func VerifyInstrumentedProgram(orig, inst *sass.Program, spec ABISpec, origPos map[string][]int) []Diagnostic {
	var diags []Diagnostic
	byName := map[string]*sass.Kernel{}
	for _, k := range orig.Kernels {
		byName[k.Name] = k
	}
	type siteRef struct {
		kernel string
		id     int64
	}
	var sites []siteRef
	for _, ik := range inst.Kernels {
		ok, found := byName[ik.Name]
		if !found {
			diags = append(diags, Diagnostic{
				Sev: Error, Check: CheckInstrSafety, Kernel: ik.Name, Instr: -1,
				Msg: "kernel has no counterpart in the original program",
			})
			continue
		}
		kd, ids := VerifyInstrumentedKernel(ok, ik, spec, origPos[ik.Name])
		diags = append(diags, kd...)
		for _, id := range ids {
			sites = append(sites, siteRef{kernel: ik.Name, id: id})
		}
	}

	// Site IDs must be dense and unique program-wide.
	sort.Slice(sites, func(i, j int) bool { return sites[i].id < sites[j].id })
	for i, s := range sites {
		if s.id != int64(i) {
			what := "gap in site IDs"
			if i > 0 && sites[i-1].id == s.id {
				what = "duplicate site ID"
			}
			diags = append(diags, Diagnostic{
				Sev: Error, Check: CheckInstrSafety, Kernel: s.kernel, Instr: -1,
				Msg: fmt.Sprintf("%s: expected %d, found %d (site IDs must be dense and unique program-wide)", what, i, s.id),
			})
			break
		}
	}
	SortDiagnostics(diags)
	return diags
}

// VerifyInstrumentedKernel checks one instrumented kernel against its
// original:
//
//   - the original instructions appear verbatim, in order, with label
//     operands remapped onto SP-balanced positions that precede the same
//     original instruction they targeted before;
//   - injected code between originals keeps the stack pointer balanced,
//     saves every live register below HandlerMaxRegs before a handler
//     call and restores it afterward, clobbers no live register without a
//     save, writes only its own stack frame, and contains no control flow
//     other than JCAL;
//   - data captured for the handler is read from original values, never
//     from a register already repurposed as a predicate/CC snapshot;
//   - register and local-memory budgets cover the injected code.
//
// It returns the diagnostics plus the site IDs recovered from immediate
// stores to spec.SiteIDOffset, for the program-wide density check.
//
// origPos, when non-nil, lists the output position of each input
// instruction in order — the injector's remap table. When nil, the
// positions are recovered from the Injected flags, which is only correct
// for a first instrumentation pass: an already-instrumented input carries
// Injected instructions of its own that the flags cannot tell apart from
// this pass's additions.
func VerifyInstrumentedKernel(orig, inst *sass.Kernel, spec ABISpec, origPos []int) ([]Diagnostic, []int64) {
	var diags []Diagnostic
	bad := func(i int, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Sev: Error, Check: CheckInstrSafety, Kernel: inst.Name, Instr: i,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	// --- Original instructions preserved verbatim and in order. ---
	if origPos == nil {
		for i := range inst.Instrs {
			if !inst.Instrs[i].Injected {
				origPos = append(origPos, i)
			}
		}
	}
	if len(origPos) != len(orig.Instrs) {
		bad(-1, "instrumented kernel carries %d original instructions, the original has %d",
			len(origPos), len(orig.Instrs))
		return diags, nil
	}
	isOrig := make([]bool, len(inst.Instrs))
	for j, p := range origPos {
		if p < 0 || p >= len(inst.Instrs) || (j > 0 && p <= origPos[j-1]) {
			bad(-1, "original-position table is not an increasing sequence of instruction indices")
			return diags, nil
		}
		isOrig[p] = true
	}
	// origCount[p] = how many originals precede position p.
	origCount := make([]int, len(inst.Instrs)+1)
	for p := 0; p < len(inst.Instrs); p++ {
		origCount[p+1] = origCount[p]
		if isOrig[p] {
			origCount[p+1]++
		}
	}
	// balanced[p] = the cumulative injected stack-pointer delta is zero on
	// entry to position p — the only positions a branch may land on.
	balanced := make([]bool, len(inst.Instrs)+1)
	{
		delta := int64(0)
		for p := 0; p <= len(inst.Instrs); p++ {
			balanced[p] = delta == 0
			if p < len(inst.Instrs) {
				if d, ok := spAdjust(&inst.Instrs[p], spec.StackReg); ok {
					delta += d
				}
			}
		}
	}
	checkLabel := func(pos int, o, n sass.Operand) {
		if n.Imm < 0 || n.Imm > int64(len(inst.Instrs)) {
			bad(pos, "remapped label %q points outside the kernel (%d)", n.Name, n.Imm)
			return
		}
		if int64(origCount[n.Imm]) != o.Imm {
			bad(pos, "remapped label %q lands before original instruction %d, want %d",
				n.Name, origCount[n.Imm], o.Imm)
			return
		}
		if !balanced[n.Imm] {
			bad(pos, "remapped label %q lands inside an open instrumentation frame", n.Name)
		}
	}
	for j := range orig.Instrs {
		a, b := &orig.Instrs[j], &inst.Instrs[origPos[j]]
		if msg := instrDiffRemapped(a, b, func(o, n sass.Operand) { checkLabel(origPos[j], o, n) }); msg != "" {
			bad(origPos[j], "original instruction %d altered: %s", j, msg)
		}
	}
	for name, oi := range orig.Labels {
		ni, ok := inst.Labels[name]
		if !ok {
			bad(-1, "label %q dropped from the label map", name)
			continue
		}
		if ni < 0 || ni > len(inst.Instrs) || origCount[ni] != oi || !balanced[ni] {
			bad(-1, "label %q remapped to %d, which is not a safe position before original instruction %d", name, ni, oi)
		}
	}

	// --- Kernel metadata budgets. ---
	anyInjected := len(origPos) != len(inst.Instrs)
	if anyInjected && inst.NumRegs < spec.HandlerMaxRegs {
		bad(-1, "NumRegs=%d does not cover the handler register budget (%d)", inst.NumRegs, spec.HandlerMaxRegs)
	}

	// --- Injected regions. ---
	cfg, err := sass.BuildCFG(orig)
	if err != nil {
		bad(-1, "original kernel has no buildable CFG: %v", err)
		return diags, nil
	}
	li := Liveness(cfg)
	sc := &siteChecker{spec: spec, bad: bad}
	maxFrame := int64(0)
	for p := 0; p < len(inst.Instrs); p++ {
		in := &inst.Instrs[p]
		if isOrig[p] {
			if sc.open() {
				bad(p, "instrumentation frame still open at an original instruction")
				sc.reset()
			}
			continue
		}
		// The gap between original j-1 and j protects the state live on
		// entry to j (both the after-site of j-1 and the before-site of j
		// observe it); past the last original nothing is live.
		j := origCount[p]
		if j < len(orig.Instrs) {
			sc.live = li.LiveIn[j]
			sc.predLive = li.PredLiveIn[j]
			sc.ccLive = li.CCLiveIn[j]
		} else {
			sc.live = sass.RegSet{}
			sc.predLive = 0
			sc.ccLive = false
		}
		sc.instr(p, in)
		if -sc.spDelta > maxFrame {
			maxFrame = -sc.spDelta
		}
	}
	if sc.open() {
		bad(len(inst.Instrs)-1, "instrumentation frame still open at the kernel end")
	}
	if anyInjected && inst.LocalBytes < orig.LocalBytes+int(maxFrame) {
		bad(-1, "LocalBytes=%d cannot hold the original %d plus the %d-byte instrumentation frame",
			inst.LocalBytes, orig.LocalBytes, maxFrame)
	}
	return diags, sc.siteIDs
}

// Value tags for the stale-read rule: what an injected-code register
// currently holds.
const (
	tagOrig     = iota // the register's original (pre-injection) value
	tagScratch         // a value computed by injected code
	tagPredSnap        // the predicate-file snapshot (P2R)
	tagCCSnap          // the condition-code snapshot (P2R.X)
)

// Slot contents for the save/restore rule.
const (
	slotDerived  = -1 // holds injected-computed data (a params field)
	slotPredSnap = -2
	slotCCSnap   = -3
	// >= 0: holds the original value of GPR r.
)

// siteChecker walks the injected instructions of one gap, one SP-balanced
// chunk (= one injection site) at a time.
type siteChecker struct {
	spec ABISpec
	bad  func(int, string, ...any)

	live     sass.RegSet
	predLive sass.PredSet
	ccLive   bool

	spDelta      int64
	content      map[int64]int   // frame offset -> slot content
	tag          [256]uint8      // register -> value tag
	written      sass.RegSet     // GPRs written this chunk
	lastImm      map[uint8]int64 // register -> last MOV32 immediate
	predSaved    bool
	ccSaved      bool
	predRestored bool
	ccRestored   bool
	sawJCAL      bool

	siteIDs []int64
}

func (sc *siteChecker) open() bool { return sc.spDelta != 0 }

func (sc *siteChecker) reset() {
	sc.spDelta = 0
	sc.content = nil
	sc.tag = [256]uint8{}
	sc.written = sass.RegSet{}
	sc.lastImm = nil
	sc.predSaved, sc.ccSaved = false, false
	sc.predRestored, sc.ccRestored = false, false
	sc.sawJCAL = false
}

// spAdjust recognizes the frame-management pattern IADD SP, SP, #imm and
// returns its delta.
func spAdjust(in *sass.Instruction, sp uint8) (int64, bool) {
	if in.Op != sass.OpIADD || !in.Guard.IsAlways() || in.Mods != (sass.Mods{}) {
		return 0, false
	}
	if len(in.Dsts) != 1 || in.Dsts[0].Kind != sass.OpdReg || in.Dsts[0].Reg != sp {
		return 0, false
	}
	if len(in.Srcs) != 2 || in.Srcs[0].Kind != sass.OpdReg || in.Srcs[0].Reg != sp ||
		in.Srcs[1].Kind != sass.OpdImm {
		return 0, false
	}
	return in.Srcs[1].Imm, true
}

// saved reports whether some frame slot holds r's original value.
func (sc *siteChecker) saved(r uint8) bool {
	for _, c := range sc.content {
		if c == int(r) {
			return true
		}
	}
	return false
}

func (sc *siteChecker) instr(p int, in *sass.Instruction) {
	spec := &sc.spec

	// Frame management.
	if d, ok := spAdjust(in, spec.StackReg); ok {
		sc.spDelta += d
		if sc.spDelta > 0 {
			sc.bad(p, "injected code raises the stack pointer above its entry value")
			sc.spDelta = 0
		}
		if sc.spDelta == 0 {
			sc.finishChunk(p)
		}
		return
	}

	// No control flow other than the handler call.
	if in.Op.IsControlXfer() && in.Op != sass.OpJCAL {
		sc.bad(p, "injected %s: injected code must not branch", in.Op)
		return
	}

	// Stale-read rule: a register holding the predicate/CC snapshot may
	// only be stored to the frame or fed to R2P; anything else is reading
	// the snapshot as if it were program data.
	if in.Op != sass.OpSTL && in.Op != sass.OpR2P {
		for _, r := range in.GPRSrcs() {
			if sc.tag[r] == tagPredSnap || sc.tag[r] == tagCCSnap {
				sc.bad(p, "injected %s reads R%d, which holds the predicate/CC snapshot, not R%d's original value", in.Op, r, r)
			}
		}
	}

	switch in.Op {
	case sass.OpSTL:
		sc.checkSTL(p, in)
	case sass.OpLDL:
		sc.checkLDL(p, in)
	case sass.OpJCAL:
		sc.checkJCAL(p)
	case sass.OpP2R:
		if len(in.Dsts) == 1 && in.Dsts[0].Kind == sass.OpdReg {
			r := in.Dsts[0].Reg
			sc.noteWrite(p, in, r)
			if in.Mods.X {
				sc.tag[r] = tagCCSnap
			} else {
				sc.tag[r] = tagPredSnap
			}
		}
	case sass.OpR2P:
		// Overwrites the predicate file (or CC with .X) from a register;
		// legal only as a restore from the matching snapshot.
		if len(in.Srcs) > 0 && in.Srcs[0].Kind == sass.OpdReg {
			r := in.Srcs[0].Reg
			switch {
			case in.Mods.X && sc.tag[r] == tagCCSnap:
				sc.ccRestored = true
			case !in.Mods.X && sc.tag[r] == tagPredSnap:
				sc.predRestored = true
			case in.Mods.X && sc.ccLive:
				sc.bad(p, "injected R2P.X overwrites the live condition code from R%d, which is not a CC snapshot", r)
			case !in.Mods.X && sc.predLive != 0:
				sc.bad(p, "injected R2P overwrites live predicates from R%d, which is not a predicate snapshot", r)
			}
		}
	default:
		if in.Op.IsMemWrite() || in.Op.IsAtomic() {
			sc.bad(p, "injected %s: injected code may only write its own stack frame (STL)", in.Op)
			return
		}
		for _, r := range in.GPRDsts() {
			sc.noteWrite(p, in, r)
		}
		for _, pr := range in.PredDsts() {
			if sc.predLive.Has(pr) {
				sc.bad(p, "injected %s clobbers live predicate P%d", in.Op, pr)
			}
		}
		if in.Mods.SetCC && sc.ccLive && !sc.ccSaved {
			sc.bad(p, "injected %s clobbers the live condition code before it is saved", in.Op)
		}
		// Track immediates for site-ID recovery.
		if in.Op == sass.OpMOV32 && len(in.Dsts) == 1 && in.Dsts[0].Kind == sass.OpdReg &&
			len(in.Srcs) == 1 && in.Srcs[0].Kind == sass.OpdImm {
			if sc.lastImm == nil {
				sc.lastImm = map[uint8]int64{}
			}
			sc.lastImm[in.Dsts[0].Reg] = in.Srcs[0].Imm
		}
	}
}

// noteWrite applies the clobber rule to a GPR write by injected code.
func (sc *siteChecker) noteWrite(p int, in *sass.Instruction, r uint8) {
	if r == sass.RZ {
		return
	}
	if r == sc.spec.StackReg {
		sc.bad(p, "injected %s clobbers the stack pointer R%d", in.Op, r)
		return
	}
	if sc.live.Has(r) && !sc.saved(r) {
		sc.bad(p, "injected %s clobbers live R%d without saving it first", in.Op, r)
	}
	sc.written.Add(r)
	sc.tag[r] = tagScratch
	delete(sc.lastImm, r)
}

func (sc *siteChecker) checkSTL(p int, in *sass.Instruction) {
	if len(in.Srcs) < 2 || in.Srcs[0].Kind != sass.OpdMem || in.Srcs[1].Kind != sass.OpdReg {
		sc.bad(p, "injected STL has malformed operands")
		return
	}
	ref, data := in.Srcs[0], in.Srcs[1]
	if ref.Reg != sc.spec.StackReg {
		sc.bad(p, "injected STL writes through R%d; only the stack frame (R%d) is allowed", ref.Reg, sc.spec.StackReg)
		return
	}
	if sc.spDelta >= 0 {
		sc.bad(p, "injected STL without an allocated stack frame")
		return
	}
	width := int64(in.Mods.Width.Bytes())
	if ref.Imm < 0 || ref.Imm+width > -sc.spDelta {
		sc.bad(p, "injected STL at frame offset %#x..%#x is outside the %d-byte frame", ref.Imm, ref.Imm+width, -sc.spDelta)
		return
	}
	if sc.content == nil {
		sc.content = map[int64]int{}
	}
	regs := []uint8{data.Reg}
	if n := in.Mods.Width.Regs(); n > 1 && data.Reg != sass.RZ {
		for k := 1; k < n; k++ {
			regs = append(regs, data.Reg+uint8(k))
		}
	}
	for k, r := range regs {
		off := ref.Imm + int64(k)*4
		switch sc.tag[r] {
		case tagOrig:
			if r != sass.RZ && r != sc.spec.StackReg {
				sc.content[off] = int(r)
			} else {
				sc.content[off] = slotDerived
			}
		case tagPredSnap:
			sc.content[off] = slotPredSnap
			sc.predSaved = true
		case tagCCSnap:
			sc.content[off] = slotCCSnap
			sc.ccSaved = true
		default:
			sc.content[off] = slotDerived
		}
		// Site-ID recovery: an immediate stored at the ID offset.
		if off == sc.spec.SiteIDOffset && k == 0 {
			if id, ok := sc.lastImm[r]; ok {
				sc.siteIDs = append(sc.siteIDs, id)
			} else {
				sc.bad(p, "site ID at frame offset %#x is not a known immediate", off)
			}
		}
	}
}

func (sc *siteChecker) checkLDL(p int, in *sass.Instruction) {
	if len(in.Dsts) != 1 || in.Dsts[0].Kind != sass.OpdReg ||
		len(in.Srcs) < 1 || in.Srcs[0].Kind != sass.OpdMem {
		sc.bad(p, "injected LDL has malformed operands")
		return
	}
	ref := in.Srcs[0]
	if ref.Reg != sc.spec.StackReg || sc.spDelta >= 0 {
		sc.bad(p, "injected LDL must read the allocated stack frame")
		return
	}
	width := int64(in.Mods.Width.Bytes())
	if ref.Imm < 0 || ref.Imm+width > -sc.spDelta {
		sc.bad(p, "injected LDL at frame offset %#x..%#x is outside the %d-byte frame", ref.Imm, ref.Imm+width, -sc.spDelta)
	}
	for k := 0; k < in.Mods.Width.Regs(); k++ {
		r := in.Dsts[0].Reg
		if r == sass.RZ {
			continue
		}
		r += uint8(k)
		off := ref.Imm + int64(k)*4
		content, ok := sc.content[off]
		switch {
		case ok && content == int(r):
			// A genuine restore: the register regains its original value.
			sc.written.Add(r)
			sc.tag[r] = tagOrig
			delete(sc.lastImm, r)
		case ok && content == slotPredSnap:
			sc.noteWriteLoad(p, in, r)
			sc.tag[r] = tagPredSnap
		case ok && content == slotCCSnap:
			sc.noteWriteLoad(p, in, r)
			sc.tag[r] = tagCCSnap
		default:
			sc.noteWriteLoad(p, in, r)
		}
	}
}

// noteWriteLoad is noteWrite for LDL destinations (scratch tag applied by
// the caller when it knows better).
func (sc *siteChecker) noteWriteLoad(p int, in *sass.Instruction, r uint8) {
	if sc.live.Has(r) && !sc.saved(r) {
		sc.bad(p, "injected %s clobbers live R%d without saving it first", in.Op, r)
	}
	sc.written.Add(r)
	sc.tag[r] = tagScratch
	delete(sc.lastImm, r)
}

func (sc *siteChecker) checkJCAL(p int) {
	sc.sawJCAL = true
	if sc.spDelta == 0 {
		sc.bad(p, "handler call without a stack frame")
		return
	}
	if -sc.spDelta < sc.spec.MinFrame {
		sc.bad(p, "handler-call frame is %d bytes; the ABI needs at least %d", -sc.spDelta, sc.spec.MinFrame)
	}
	if sc.spec.FrameAlign > 0 && (-sc.spDelta)%sc.spec.FrameAlign != 0 {
		sc.bad(p, "handler-call frame of %d bytes is not %d-byte aligned", -sc.spDelta, sc.spec.FrameAlign)
	}
	for _, r := range sc.live.Regs() {
		if r == sc.spec.StackReg || int(r) >= sc.spec.HandlerMaxRegs {
			continue
		}
		if !sc.saved(r) {
			sc.bad(p, "live R%d is not saved before the handler call (handlers may clobber R0..R%d)", r, sc.spec.HandlerMaxRegs-1)
		}
	}
	if sc.predLive != 0 && !sc.predSaved {
		sc.bad(p, "live predicates %v are not saved before the handler call", sc.predLive.Preds())
	}
	if sc.ccLive && !sc.ccSaved {
		sc.bad(p, "the live condition code is not saved before the handler call")
	}
	for _, a := range sc.spec.ArgRegs {
		if !sc.written.Has(a) {
			sc.bad(p, "ABI argument register R%d is not set before the handler call", a)
		}
	}
	// The handler may clobber every GPR below HandlerMaxRegs; treat them as
	// scratch afterwards so the end-of-site rule (finishChunk) demands a
	// reload of each live one from its saved slot.
	for r := 0; r < sc.spec.HandlerMaxRegs && r < 256; r++ {
		u := uint8(r)
		if u == sc.spec.StackReg {
			continue
		}
		sc.written.Add(u)
		sc.tag[u] = tagScratch
		delete(sc.lastImm, u)
	}
}

// finishChunk runs the end-of-site checks once the frame is released.
func (sc *siteChecker) finishChunk(p int) {
	for _, r := range sc.written.Regs() {
		if !sc.live.Has(r) || r == sc.spec.StackReg {
			continue
		}
		if sc.tag[r] != tagOrig {
			sc.bad(p, "live R%d is not restored before the frame is released (last write is not a reload of its saved value)", r)
		}
	}
	if sc.sawJCAL {
		if sc.predLive != 0 && sc.predSaved && !sc.predRestored {
			sc.bad(p, "live predicates are not restored after the handler call")
		}
		if sc.ccLive && sc.ccSaved && !sc.ccRestored {
			sc.bad(p, "the live condition code is not restored after the handler call")
		}
	}
	sc.reset()
}

// instrDiffRemapped compares an original instruction with its copy in the
// instrumented kernel. Label operands are checked through onLabel (their
// Imm is expected to be remapped); everything else must be identical.
func instrDiffRemapped(a, b *sass.Instruction, onLabel func(o, n sass.Operand)) string {
	if a.Op != b.Op {
		return fmt.Sprintf("opcode %v became %v", a.Op, b.Op)
	}
	if a.Guard != b.Guard {
		return fmt.Sprintf("guard %+v became %+v", a.Guard, b.Guard)
	}
	if a.Mods != b.Mods {
		return fmt.Sprintf("modifiers %+v became %+v", a.Mods, b.Mods)
	}
	if a.Injected != b.Injected {
		return "injected flag changed on an original instruction"
	}
	if msg := operandsDiff("destination", a.Dsts, b.Dsts); msg != "" {
		return msg
	}
	if len(a.Srcs) != len(b.Srcs) {
		return fmt.Sprintf("source count %d became %d", len(a.Srcs), len(b.Srcs))
	}
	for i := range a.Srcs {
		ao, bo := a.Srcs[i], b.Srcs[i]
		if ao.Kind == sass.OpdLabel && bo.Kind == sass.OpdLabel {
			if ao.Name != bo.Name {
				return fmt.Sprintf("label name %q became %q", ao.Name, bo.Name)
			}
			onLabel(ao, bo)
			continue
		}
		if ao != bo {
			return fmt.Sprintf("source %d %v became %v", i, ao, bo)
		}
	}
	return ""
}
