package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"sassi/internal/mem"
	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/sass"
)

// engine executes one kernel launch. Each SM runs on its own goroutine
// (unless Config.SequentialSMs or a MemWatch forces the sequential path),
// and all mutable per-launch state an SM touches lives in its smShard, so
// the goroutines share nothing but the device's Global memory — which is
// internally synchronized. Instrumentation handlers with warp collectives
// additionally fan out one goroutine per lane.
type engine struct {
	dev   *Device
	cb    []byte // constant bank 0 for this launch
	stats *KernelStats

	// base is the code of the launched kernel, which every CTA runs unless
	// twinCTAs picks it for twin, the code of LaunchParams.Twin's kernel
	// (nil for a launch without one). The two agree on everything the
	// launch fixes once: name, parameter layout and so cb, shared bytes.
	base     ctaCode
	twin     *ctaCode
	twinCTAs func(cta int) bool

	sms    []smShard
	ntid   [3]uint32
	nctaid [3]uint32

	// cycleBase offsets this launch's device-lane trace spans so
	// successive launches stack on the device timeline.
	cycleBase uint64

	// PC-sampling attachment (nil when the device has no sampler): the
	// per-launch buffer set, the cycle cadence, and the warps-per-CTA
	// factor that makes launch-global warp ids (CTA*warpsPerCTA + id).
	samp        *pcsamp.LaunchSamples
	sampPeriod  uint64
	warpsPerCTA int
}

// smShard is one SM's private slice of the launch state: its view of the
// memory hierarchy and its statistics counters. Counters are merged into
// KernelStats at kernel exit with order-independent reductions (sums and
// maxes), which is what makes the merged stats bit-equal regardless of SM
// scheduling.
type smShard struct {
	hier mem.Hierarchy

	warpInstrs           uint64
	threadInstrs         uint64
	injectedWarpInstrs   uint64
	injectedThreadInstrs uint64
	handlerCalls         uint64
	maxWarpInstrs        uint64
	globalTransactions   uint64
	cycles               uint64

	// Observability counters: divergent-branch events and warp-sweeps a
	// warp sat blocked at a barrier. Plain fields like the rest of the
	// shard, so recording them costs nothing beyond the increment and the
	// order-independent merge keeps parallel runs bit-equal.
	divergentBranches  uint64
	barrierStallSweeps uint64
	scoreboardStalls   uint64
	ctasRun            uint64

	// PC sampling: this SM's single-writer sample buffer and the cycle
	// count at which the next sample fires. Like the counters above they
	// are plain shard fields — the hot path pays one nil check when
	// sampling is off and one compare when it is on.
	samp     *pcsamp.SMBuf
	sampNext uint64

	// warpOp is the predecoded engine's reusable batch descriptor for
	// warp-level global accesses (single-writer: only this SM's goroutine
	// touches it), and coalRes the coalescer result it reuses the same way
	// so the steady state performs no allocation per access.
	warpOp  mem.WarpOp
	coalRes mem.Result
}

func (e *engine) fail(w *Warp, kind ErrKind, format string, args ...any) error {
	return &KernelError{
		Kind:   kind,
		Kernel: e.stats.Kernel,
		Detail: fmt.Sprintf("pc=%d: ", w.PC) + fmt.Sprintf(format, args...),
	}
}

// failCause turns an error raised below the engine into the launch's
// KernelError, keeping it as the cause: a memory fault, or anything else.
func (e *engine) failCause(w *Warp, cause error) error {
	if ke, ok := cause.(*KernelError); ok {
		return ke
	}
	kind := ErrInvalid
	if _, ok := cause.(*mem.Fault); ok {
		kind = ErrMemFault
	}
	return &KernelError{Kind: kind, Kernel: e.stats.Kernel, Detail: fmt.Sprintf("pc=%d: %v", w.PC, cause), Err: cause}
}

// cbRead32 reads a 32-bit word from the launch's constant bank.
func (e *engine) cbRead32(off int64) (uint32, error) {
	if off < 0 || off+4 > int64(len(e.cb)) {
		return 0, &mem.Fault{Space: mem.SpaceConst, Addr: uint64(off), Why: "constant bank offset out of range"}
	}
	return binary.LittleEndian.Uint32(e.cb[off:]), nil
}

// srcU32 evaluates a scalar source operand for one thread.
func (e *engine) srcU32(t *Thread, o sass.Operand) (uint32, error) {
	switch o.Kind {
	case sass.OpdReg:
		return t.ReadReg(o.Reg), nil
	case sass.OpdImm:
		return uint32(o.Imm), nil
	case sass.OpdCMem:
		return e.cbRead32(o.Imm)
	case sass.OpdSReg:
		return e.readSR(t, o.SR), nil
	case sass.OpdPred:
		if t.guardPasses(o.Reg, o.Neg) {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unsupported source operand %s", o)
}

func (e *engine) readSR(t *Thread, sr sass.SpecialReg) uint32 {
	switch sr {
	case sass.SRLaneID:
		return t.LaneID
	case sass.SRTidX:
		return t.TidX
	case sass.SRTidY:
		return t.TidY
	case sass.SRTidZ:
		return t.TidZ
	case sass.SRCtaidX:
		return t.CtaX
	case sass.SRCtaidY:
		return t.CtaY
	case sass.SRCtaidZ:
		return t.CtaZ
	case sass.SRNTidX:
		return e.ntid[0]
	case sass.SRNTidY:
		return e.ntid[1]
	case sass.SRNTidZ:
		return e.ntid[2]
	case sass.SRNCtaidX:
		return e.nctaid[0]
	case sass.SRNCtaidY:
		return e.nctaid[1]
	case sass.SRNCtaidZ:
		return e.nctaid[2]
	case sass.SRWarpID:
		return uint32(t.warp.IDinCTA)
	case sass.SRSMID:
		return uint32(t.warp.CTA.SM)
	case sass.SRClock:
		// Per-SM instruction clock: SMs tick independently on hardware,
		// and a per-shard count keeps the value deterministic under
		// parallel SM execution.
		return uint32(e.sms[t.warp.CTA.SM].warpInstrs)
	}
	return 0
}

// step executes one instruction for warp w. It returns an error only for
// fatal kernel conditions (fault, hang, invalid op).
func (e *engine) step(w *Warp) error {
	if w.Done || w.AtBarrier {
		return nil
	}
	k := w.CTA.Kernel
	if w.PC < 0 || w.PC >= len(k.Instrs) {
		return e.fail(w, ErrInvalid, "PC out of range (fell off kernel end)")
	}
	st := &e.sms[w.CTA.SM]
	// PC sampling needs the pre-execution PC (control transfers rewrite
	// w.PC below) and the divergence count before this instruction, to
	// classify a branch that splits the mask. Both captures are plain
	// field reads; the second is gated so the sampling-off path pays only
	// one predictable branch.
	pcIdx := w.PC
	var divBefore uint64
	if st.samp != nil {
		divBefore = st.divergentBranches
	}
	w.DynWarpInstrs++
	if w.DynWarpInstrs > st.maxWarpInstrs {
		st.maxWarpInstrs = w.DynWarpInstrs
	}
	if w.DynWarpInstrs > e.dev.Cfg.WatchdogWarpInstrs {
		return e.fail(w, ErrHang, "watchdog: warp exceeded %d instructions", e.dev.Cfg.WatchdogWarpInstrs)
	}
	in := &k.Instrs[w.PC]

	// Guard evaluation over the active mask.
	exec := uint32(0)
	if in.Guard.IsAlways() {
		exec = w.Active
	} else {
		Lanes(w.Active, func(l int) {
			if w.Threads[l] != nil && w.Threads[l].guardPasses(in.Guard.Reg, in.Guard.Neg) {
				exec |= 1 << l
			}
		})
	}

	// Issue accounting.
	st.warpInstrs++
	nexec := bits.OnesCount32(exec)
	st.threadInstrs += uint64(nexec)
	if in.Injected {
		st.injectedWarpInstrs++
		st.injectedThreadInstrs += uint64(nexec)
	}
	cost := issueCost(in)
	Lanes(exec, func(l int) { w.Threads[l].DynInstrs++ })

	advance, cost, err := e.execOp(w, in, exec, cost)
	if err != nil {
		return e.failCause(w, err)
	}
	if advance {
		w.PC++
	}
	stall := w.scoreboard(in, cost)
	st.cycles += uint64(cost) + stall
	st.scoreboardStalls += stall
	if st.samp != nil && st.cycles >= st.sampNext {
		e.takeSample(st, w, pcIdx, in, nexec, cost, stall, divBefore)
	}
	return nil
}

// execOp dispatches one instruction's operation, already past guard
// evaluation and issue accounting. It returns whether the PC advances
// sequentially and the final issue cost (the static cost plus any dynamic
// memory or handler charge). Both the classic interpreter (step) and the
// predecoded engine's fallback path (stepPre) funnel through it, so
// delegated operations cannot diverge between engines.
func (e *engine) execOp(w *Warp, in *sass.Instruction, exec uint32, cost int) (bool, int, error) {
	advance := true
	var err error
	switch in.Op {
	case sass.OpNOP, sass.OpF2F:
		// F2F is a conversion that is value-preserving at our precision.
		if in.Op == sass.OpF2F && exec != 0 {
			err = e.unary(w, in, exec, func(a uint32) uint32 { return a })
		}

	case sass.OpBRA:
		advance = false
		err = e.execBranch(w, in, exec)

	case sass.OpSSY:
		t, _ := in.BranchTarget()
		w.Stack = append(w.Stack, divEntry{kind: divSSY, pc: int(t.Imm), mask: w.Active})

	case sass.OpSYNC:
		advance = false
		if !w.popToNonEmpty() {
			w.Done = true
		}

	case sass.OpPBK, sass.OpBRK:
		// The compiler expresses loop exits through the SSY/SYNC idiom;
		// break tokens are defined by the ISA but never emitted.
		return false, cost, e.fail(w, ErrInvalid, "PBK/BRK are not supported by this backend")

	case sass.OpEXIT:
		w.exitLanes(exec)
		if w.Active == 0 {
			advance = false
			if !w.popToNonEmpty() {
				w.Done = true
			}
		}

	case sass.OpCAL:
		advance = false
		if exec != w.Active {
			return false, cost, e.fail(w, ErrInvalid, "divergent CAL is unsupported")
		}
		t, _ := in.BranchTarget()
		w.CallStack = append(w.CallStack, w.PC+1)
		w.PC = int(t.Imm)

	case sass.OpRET:
		advance = false
		if len(w.CallStack) == 0 {
			return false, cost, e.fail(w, ErrInvalid, "RET with empty call stack")
		}
		w.PC = w.CallStack[len(w.CallStack)-1]
		w.CallStack = w.CallStack[:len(w.CallStack)-1]

	case sass.OpJCAL:
		err = e.execJCAL(w, in, exec)
		cost += e.dev.Cfg.HandlerBodyCost

	case sass.OpBAR:
		if w.Active != w.Alive || exec != w.Active {
			return false, cost, e.fail(w, ErrInvalid, "divergent BAR.SYNC would deadlock")
		}
		w.AtBarrier = true

	case sass.OpLD, sass.OpST, sass.OpLDG, sass.OpSTG, sass.OpLDL, sass.OpSTL,
		sass.OpLDS, sass.OpSTS, sass.OpLDC, sass.OpATOM, sass.OpATOMS,
		sass.OpRED, sass.OpTLD:
		var memCost int
		memCost, err = e.execMem(w, in, exec)
		cost += memCost

	case sass.OpVOTE:
		err = e.execVote(w, in, exec)

	case sass.OpSHFL:
		err = e.execShfl(w, in, exec)

	default:
		err = e.execALU(w, in, exec)
	}
	return advance, cost, err
}

// execBranch implements predicated BRA with divergence-stack semantics.
func (e *engine) execBranch(w *Warp, in *sass.Instruction, taken uint32) error {
	t, ok := in.BranchTarget()
	if !ok || t.Kind != sass.OpdLabel {
		return fmt.Errorf("BRA without label target")
	}
	target := int(t.Imm)
	fall := w.Active &^ taken
	switch {
	case taken == 0:
		w.PC++
	case fall == 0:
		w.PC = target
	default:
		// Divergence: defer the fall-through lanes, run the taken path.
		w.Stack = append(w.Stack, divEntry{kind: divDEF, pc: w.PC + 1, mask: fall})
		w.Active = taken
		w.PC = target
		e.sms[w.CTA.SM].divergentBranches++
	}
	return nil
}

// execJCAL dispatches an instrumentation-handler call.
func (e *engine) execJCAL(w *Warp, in *sass.Instruction, exec uint32) error {
	t, ok := in.BranchTarget()
	if !ok || t.Kind != sass.OpdSym {
		return fmt.Errorf("JCAL without symbol target")
	}
	// The symbol table is the one of the program the CTA's kernel is from.
	handlers := e.base.handlers
	if e.twin != nil && w.CTA.Kernel == e.twin.k {
		handlers = e.twin.handlers
	}
	id, ok := handlers[t.Name]
	if !ok {
		return fmt.Errorf("JCAL to unlinked symbol %q", t.Name)
	}
	if e.dev.Dispatcher == nil {
		return fmt.Errorf("JCAL %q with no handler dispatcher installed", t.Name)
	}
	st := &e.sms[w.CTA.SM]
	st.handlerCalls++
	if tr := e.dev.Trace; tr != nil {
		tr.Span(obs.PidDevice, w.CTA.SM, "handler:"+t.Name,
			float64(e.cycleBase+st.cycles), float64(e.dev.Cfg.HandlerBodyCost), nil)
	}
	return e.dev.Dispatcher.Dispatch(e.dev, w, id)
}

// execVote implements VOTE.{ALL,ANY,BALLOT} over the executing lanes.
func (e *engine) execVote(w *Warp, in *sass.Instruction, exec uint32) error {
	if exec == 0 {
		return nil
	}
	src := in.Srcs[0]
	if src.Kind != sass.OpdPred {
		return fmt.Errorf("VOTE source must be a predicate")
	}
	var mask uint32
	Lanes(exec, func(l int) {
		if w.Threads[l].guardPasses(src.Reg, src.Neg) {
			mask |= 1 << l
		}
	})
	d := in.Dsts[0]
	switch in.Mods.Vote {
	case sass.VoteBALLOT:
		Lanes(exec, func(l int) { w.Threads[l].WriteReg(d.Reg, mask) })
	case sass.VoteALL:
		v := mask == exec
		Lanes(exec, func(l int) { w.Threads[l].WritePred(d.Reg, v) })
	case sass.VoteANY:
		v := mask != 0
		Lanes(exec, func(l int) { w.Threads[l].WritePred(d.Reg, v) })
	}
	return nil
}

// execShfl implements SHFL.{IDX,UP,DOWN,BFLY}.
func (e *engine) execShfl(w *Warp, in *sass.Instruction, exec uint32) error {
	if exec == 0 {
		return nil
	}
	// Dsts: [Pd, Rd]; Srcs: [Ra, b (lane/delta), c (clamp, unused)].
	pd := in.Dsts[0]
	rd := in.Dsts[1]
	var vals [WarpSize]uint32
	Lanes(exec, func(l int) {
		v, _ := e.srcU32(w.Threads[l], in.Srcs[0])
		vals[l] = v
	})
	var results [WarpSize]uint32
	var valid [WarpSize]bool
	var outerErr error
	Lanes(exec, func(l int) {
		b, err := e.srcU32(w.Threads[l], in.Srcs[1])
		if err != nil {
			outerErr = err
			return
		}
		src := l
		switch in.Mods.Shfl {
		case sass.ShflIDX:
			src = int(b & 31)
		case sass.ShflUP:
			src = l - int(b&31)
		case sass.ShflDOWN:
			src = l + int(b&31)
		case sass.ShflBFLY:
			src = l ^ int(b&31)
		}
		if src >= 0 && src < WarpSize && exec&(1<<src) != 0 {
			results[l] = vals[src]
			valid[l] = true
		} else {
			results[l] = vals[l]
			valid[l] = false
		}
	})
	if outerErr != nil {
		return outerErr
	}
	Lanes(exec, func(l int) {
		w.Threads[l].WriteReg(rd.Reg, results[l])
		if pd.Kind == sass.OpdPred {
			w.Threads[l].WritePred(pd.Reg, valid[l])
		}
	})
	return nil
}

// unary applies f to src0 for each executing lane.
func (e *engine) unary(w *Warp, in *sass.Instruction, exec uint32, f func(uint32) uint32) error {
	var err error
	Lanes(exec, func(l int) {
		t := w.Threads[l]
		a, e2 := e.srcU32(t, in.Srcs[0])
		if e2 != nil {
			err = e2
			return
		}
		t.WriteReg(in.Dsts[0].Reg, f(a))
	})
	return err
}

// execALU handles the arithmetic/logic/move family per lane.
func (e *engine) execALU(w *Warp, in *sass.Instruction, exec uint32) error {
	var err error
	Lanes(exec, func(l int) {
		if err != nil {
			return
		}
		err = e.execALULane(w.Threads[l], in)
	})
	return err
}

func (e *engine) execALULane(t *Thread, in *sass.Instruction) error {
	get := func(i int) (uint32, error) {
		if i >= len(in.Srcs) {
			return 0, fmt.Errorf("%s: missing source %d", in.Op, i)
		}
		return e.srcU32(t, in.Srcs[i])
	}
	put := func(v uint32) {
		t.WriteReg(in.Dsts[0].Reg, v)
	}
	switch in.Op {
	case sass.OpIADD, sass.OpIADD32:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		if in.Mods.NegB {
			b = -b
		}
		sum := uint64(a) + uint64(b)
		if in.Mods.X && t.CC&CCCarry != 0 {
			sum++
		}
		r := uint32(sum)
		if in.Mods.SetCC {
			t.CC = 0
			if r == 0 {
				t.CC |= CCZero
			}
			if int32(r) < 0 {
				t.CC |= CCSign
			}
			if sum>>32 != 0 {
				t.CC |= CCCarry
			}
			if (a^b)&0x8000_0000 == 0 && (a^r)&0x8000_0000 != 0 {
				t.CC |= CCOvf
			}
		}
		put(r)

	case sass.OpIMUL:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		put(a * b)

	case sass.OpIMAD:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		c, err := get(2)
		if err != nil {
			return err
		}
		put(a*b + c)

	case sass.OpISCADD:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		sh, err := get(2)
		if err != nil {
			return err
		}
		put((a << (sh & 31)) + b)

	case sass.OpISETP:
		return e.execSetp(t, in, false)

	case sass.OpFSETP:
		return e.execSetp(t, in, true)

	case sass.OpIMNMX:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		takeMin := true
		if len(in.Srcs) > 2 && in.Srcs[2].Kind == sass.OpdPred {
			takeMin = t.guardPasses(in.Srcs[2].Reg, in.Srcs[2].Neg)
		}
		var r uint32
		if in.Mods.Unsigned {
			if (a < b) == takeMin {
				r = a
			} else {
				r = b
			}
		} else {
			if (i32(a) < i32(b)) == takeMin {
				r = a
			} else {
				r = b
			}
		}
		put(r)

	case sass.OpLOP:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		switch in.Mods.Logic {
		case sass.LogicAND:
			put(a & b)
		case sass.LogicOR:
			put(a | b)
		case sass.LogicXOR:
			put(a ^ b)
		case sass.LogicPASS:
			put(b)
		case sass.LogicNOT:
			put(^b)
		}

	case sass.OpSHL:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		if b >= 32 {
			put(0)
		} else {
			put(a << b)
		}

	case sass.OpSHR:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		if in.Mods.Unsigned {
			if b >= 32 {
				put(0)
			} else {
				put(a >> b)
			}
		} else {
			if b >= 32 {
				b = 31
			}
			put(u32(i32(a) >> b))
		}

	case sass.OpBFE:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		pos := b & 0xff
		n := (b >> 8) & 0xff
		if n == 0 {
			put(0)
			break
		}
		if pos > 31 {
			pos = 31
		}
		if pos+n > 32 {
			n = 32 - pos
		}
		v := a >> pos
		if n < 32 {
			v &= (1 << n) - 1
		}
		if !in.Mods.Unsigned && n < 32 && v&(1<<(n-1)) != 0 {
			v |= ^uint32(0) << n
		}
		put(v)

	case sass.OpBFI:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		c, err := get(2)
		if err != nil {
			return err
		}
		pos := b & 0xff
		n := (b >> 8) & 0xff
		if pos > 31 {
			pos = 31
		}
		if pos+n > 32 {
			n = 32 - pos
		}
		maskv := uint32(0)
		if n > 0 {
			maskv = ((1 << n) - 1) << pos
		}
		put((c &^ maskv) | ((a << pos) & maskv))

	case sass.OpFLO:
		a, err := get(0)
		if err != nil {
			return err
		}
		if a == 0 {
			put(^uint32(0))
		} else {
			put(uint32(31 - bits.LeadingZeros32(a)))
		}

	case sass.OpPOPC:
		a, err := get(0)
		if err != nil {
			return err
		}
		put(uint32(bits.OnesCount32(a)))

	case sass.OpSEL:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		sel := in.Srcs[2]
		if t.guardPasses(sel.Reg, sel.Neg) {
			put(a)
		} else {
			put(b)
		}

	case sass.OpMOV, sass.OpMOV32:
		a, err := get(0)
		if err != nil {
			return err
		}
		put(a)

	case sass.OpS2R:
		put(e.readSR(t, in.Srcs[0].SR))

	case sass.OpP2R:
		// P2R moves the predicate file (or, with .X, the condition code)
		// into a GPR under a mask; SASSI's spill sequences rely on it.
		a, err := get(0)
		if err != nil {
			return err
		}
		maskv, err := get(1)
		if err != nil {
			return err
		}
		src := uint32(t.Preds)
		if in.Mods.X {
			src = uint32(t.CC)
		}
		put((a &^ maskv) | (src & maskv))

	case sass.OpR2P:
		a, err := get(0)
		if err != nil {
			return err
		}
		maskv, err := get(1)
		if err != nil {
			return err
		}
		if in.Mods.X {
			t.CC = (t.CC &^ uint8(maskv)) | (uint8(a) & uint8(maskv&0xf))
			break
		}
		// PT (bit 7) is not writable.
		maskv &= 0x7f
		t.Preds = (t.Preds &^ uint8(maskv)) | (uint8(a) & uint8(maskv))
		t.Preds |= 1 << 7

	case sass.OpPSETP:
		pa := in.Srcs[0]
		pb := in.Srcs[1]
		a := t.guardPasses(pa.Reg, pa.Neg)
		b := t.guardPasses(pb.Reg, pb.Neg)
		var v bool
		switch in.Mods.Logic {
		case sass.LogicAND:
			v = a && b
		case sass.LogicOR:
			v = a || b
		case sass.LogicXOR:
			v = a != b
		default:
			v = a
		}
		t.WritePred(in.Dsts[0].Reg, v)

	case sass.OpFADD:
		return e.fbinop(t, in, func(a, b float32) float32 { return a + b })
	case sass.OpFMUL:
		return e.fbinop(t, in, func(a, b float32) float32 { return a * b })
	case sass.OpFFMA:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		c, err := get(2)
		if err != nil {
			return err
		}
		put(f32b(f32(a)*f32(b) + f32(c)))
	case sass.OpFMNMX:
		a, err := get(0)
		if err != nil {
			return err
		}
		b, err := get(1)
		if err != nil {
			return err
		}
		takeMin := true
		if len(in.Srcs) > 2 && in.Srcs[2].Kind == sass.OpdPred {
			takeMin = t.guardPasses(in.Srcs[2].Reg, in.Srcs[2].Neg)
		}
		fa, fb := f32(a), f32(b)
		if (fa < fb) == takeMin {
			put(a)
		} else {
			put(b)
		}

	case sass.OpMUFU:
		a, err := get(0)
		if err != nil {
			return err
		}
		x := float64(f32(a))
		var r float64
		switch in.Mods.Mufu {
		case sass.MufuRCP:
			r = 1 / x
		case sass.MufuRSQ:
			r = 1 / math.Sqrt(x)
		case sass.MufuSQRT:
			r = math.Sqrt(x)
		case sass.MufuSIN:
			r = math.Sin(x)
		case sass.MufuCOS:
			r = math.Cos(x)
		case sass.MufuEX2:
			r = math.Exp2(x)
		case sass.MufuLG2:
			r = math.Log2(x)
		}
		put(f32b(float32(r)))

	case sass.OpF2I:
		a, err := get(0)
		if err != nil {
			return err
		}
		f := f32(a)
		switch {
		case math.IsNaN(float64(f)):
			put(0)
		case f >= math.MaxInt32:
			put(u32(math.MaxInt32))
		case f <= math.MinInt32:
			put(u32(math.MinInt32))
		default:
			put(u32(int32(f)))
		}

	case sass.OpI2F:
		a, err := get(0)
		if err != nil {
			return err
		}
		if in.Mods.Unsigned {
			put(f32b(float32(a)))
		} else {
			put(f32b(float32(i32(a))))
		}

	default:
		return fmt.Errorf("opcode %s not implemented", in.Op)
	}
	return nil
}

func (e *engine) fbinop(t *Thread, in *sass.Instruction, f func(a, b float32) float32) error {
	a, err := e.srcU32(t, in.Srcs[0])
	if err != nil {
		return err
	}
	b, err := e.srcU32(t, in.Srcs[1])
	if err != nil {
		return err
	}
	fb := f32(b)
	if in.Mods.NegB {
		fb = -fb
	}
	t.WriteReg(in.Dsts[0].Reg, f32b(f(f32(a), fb)))
	return nil
}

// execSetp implements ISETP/FSETP: Pd = (a cmp b) LOGIC Pc, and optionally
// Pq = !(a cmp b) LOGIC Pc.
func (e *engine) execSetp(t *Thread, in *sass.Instruction, float bool) error {
	a, err := e.srcU32(t, in.Srcs[0])
	if err != nil {
		return err
	}
	b, err := e.srcU32(t, in.Srcs[1])
	if err != nil {
		return err
	}
	var cmp bool
	if float {
		fa, fb := f32(a), f32(b)
		switch in.Mods.Cmp {
		case sass.CmpLT:
			cmp = fa < fb
		case sass.CmpLE:
			cmp = fa <= fb
		case sass.CmpGT:
			cmp = fa > fb
		case sass.CmpGE:
			cmp = fa >= fb
		case sass.CmpEQ:
			cmp = fa == fb
		case sass.CmpNE:
			cmp = fa != fb
		}
	} else if in.Mods.Unsigned {
		switch in.Mods.Cmp {
		case sass.CmpLT:
			cmp = a < b
		case sass.CmpLE:
			cmp = a <= b
		case sass.CmpGT:
			cmp = a > b
		case sass.CmpGE:
			cmp = a >= b
		case sass.CmpEQ:
			cmp = a == b
		case sass.CmpNE:
			cmp = a != b
		}
	} else {
		sa, sb := i32(a), i32(b)
		switch in.Mods.Cmp {
		case sass.CmpLT:
			cmp = sa < sb
		case sass.CmpLE:
			cmp = sa <= sb
		case sass.CmpGT:
			cmp = sa > sb
		case sass.CmpGE:
			cmp = sa >= sb
		case sass.CmpEQ:
			cmp = sa == sb
		case sass.CmpNE:
			cmp = sa != sb
		}
	}
	c := true
	if len(in.Srcs) > 2 && in.Srcs[2].Kind == sass.OpdPred {
		c = t.guardPasses(in.Srcs[2].Reg, in.Srcs[2].Neg)
	}
	combine := func(x bool) bool {
		switch in.Mods.Logic {
		case sass.LogicAND:
			return x && c
		case sass.LogicOR:
			return x || c
		case sass.LogicXOR:
			return x != c
		}
		return x
	}
	t.WritePred(in.Dsts[0].Reg, combine(cmp))
	if len(in.Dsts) > 1 && in.Dsts[1].Kind == sass.OpdPred {
		t.WritePred(in.Dsts[1].Reg, combine(!cmp))
	}
	return nil
}

// issueCost is the base pipeline cost of one warp instruction, delegated
// to the canonical latency model in internal/sass so the ptxas list
// scheduler optimizes against exactly what the simulator charges.
func issueCost(in *sass.Instruction) int { return sass.IssueCost(in) }
