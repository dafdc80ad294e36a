package sim

import (
	"encoding/binary"
	"fmt"
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
// internally synchronized. Instrumentation handlers run inline on the SM's
// goroutine, collectives included (see package device).
type engine struct {
	dev   *Device
	cb    []byte // constant bank 0 for this launch
	stats *KernelStats

	// base is the code of the launched kernel, which every warp runs unless
	// twin, LaunchParams.Twin's (nil for a launch without one), picks it.
	// The two agree on everything the launch fixes once: name, parameter
	// layout and so cb, shared bytes.
	base warpCode
	twin *twinCode
	// fence is the Twin's fence (nil: unfenced).
	fence func(lines []uint64, kind Access) bool

	sms    []smShard
	ntid   [3]uint32
	nctaid [3]uint32

	// cycleBase offsets this launch's device-lane trace spans so
	// successive launches stack on the device timeline.
	cycleBase uint64

	// PC-sampling attachment (nil when the device has no sampler): the
	// per-launch buffer set and the cycle cadence.
	samp       *pcsamp.LaunchSamples
	sampPeriod uint64

	// probe is the launch's site counting (nil without a Device.Probe).
	probe *siteCount
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

	// target is the warp of the launch's Twin.Site, when this SM runs it.
	target *Warp
}

func (e *engine) fail(w *Warp, kind ErrKind, format string, args ...any) error {
	return &KernelError{
		Kind:   kind,
		Kernel: e.stats.Kernel,
		Detail: fmt.Sprintf("pc=%d: ", w.PC) + fmt.Sprintf(format, args...),
	}
}

// failCause turns an error raised below the engine into the launch's
// KernelError, keeping it as the cause: a memory fault, or anything else
// but a FenceError, which stays what it is.
func (e *engine) failCause(w *Warp, cause error) error {
	switch cause.(type) {
	case *KernelError, *FenceError:
		return cause
	}
	kind := ErrInvalid
	if _, ok := cause.(*mem.Fault); ok {
		kind = ErrMemFault
	}
	return &KernelError{Kind: kind, Kernel: e.stats.Kernel, Detail: fmt.Sprintf("pc=%d: %v", w.PC, cause), Err: cause}
}

// fenced is the FenceError of warp w's global access.
func (e *engine) fenced(w *Warp, kind Access) error {
	return &FenceError{Kernel: e.stats.Kernel, CTA: w.CTA.Index, PC: w.PC, Access: kind}
}

// cbRead32 reads a 32-bit word from the launch's constant bank.
func (e *engine) cbRead32(off int64) (uint32, error) {
	if off < 0 || off+4 > int64(len(e.cb)) {
		return 0, &mem.Fault{Space: mem.SpaceConst, Addr: uint64(off), Why: "constant bank offset out of range"}
	}
	return binary.LittleEndian.Uint32(e.cb[off:]), nil
}

// ReadSrc evaluates a value source operand for one thread (see
// SrcReader).
func (e *engine) ReadSrc(t *Thread, o sass.Operand) (uint32, error) {
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

// step executes one instruction for warp w from its sass.Instruction: the
// reference interpreter's issue loop, which runs when a Device.Reference
// is installed. It returns an error only for fatal kernel conditions
// (fault, hang, invalid op).
func (e *engine) step(w *Warp) error {
	if w.Done || w.AtBarrier {
		return nil
	}
	k := w.code.k
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
			if t := w.Thread(l); t != nil && t.guardPasses(in.Guard.Reg, in.Guard.Neg) {
				exec |= 1 << l
			}
		})
	}

	// Issue accounting.
	st.warpInstrs++
	nexec := bits.OnesCount32(exec)
	st.threadInstrs += uint64(nexec)
	if e.probe != nil {
		e.probe.issue(w, pcIdx, exec)
	}
	if in.Injected {
		st.injectedWarpInstrs++
		st.injectedThreadInstrs += uint64(nexec)
	}
	cost := issueCost(in)

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
// memory or handler charge). The reference loop (step) runs every
// instruction through it and the core (stepPre) the pcGeneric ones — the
// warp-level operations — so those cannot diverge between the two.
func (e *engine) execOp(w *Warp, in *sass.Instruction, exec uint32, cost int) (bool, int, error) {
	advance := true
	var err error
	switch in.Op {
	case sass.OpNOP:

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
		err = e.execJCAL(w, in)
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
		// ALU and SETP: the core's row kernels run them (stepPre), the
		// reference loop Device.Reference.
		if e.dev.Reference == nil {
			return false, cost, fmt.Errorf("opcode %s not implemented", in.Op)
		}
		err = e.dev.Reference(w, in, exec, e)
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

// execJCAL dispatches an instrumentation-handler call, looking its symbol
// up in the program the warp's kernel is from. (The core's pcJCAL class
// carries the symbol resolved at launch instead.)
func (e *engine) execJCAL(w *Warp, in *sass.Instruction) error {
	t, ok := in.BranchTarget()
	if !ok || t.Kind != sass.OpdSym {
		return fmt.Errorf("JCAL without symbol target")
	}
	id, ok := w.code.handlers[t.Name]
	if !ok {
		id = -1
	}
	return e.callHandler(w, id, t.Name)
}

// callHandler is a JCAL from w to handler id of its program (-1: sym is not
// linked): the dispatch both cores share.
func (e *engine) callHandler(w *Warp, id int, sym string) error {
	if id < 0 {
		return fmt.Errorf("JCAL to unlinked symbol %q", sym)
	}
	if e.dev.Dispatcher == nil {
		return fmt.Errorf("JCAL %q with no handler dispatcher installed", sym)
	}
	st := &e.sms[w.CTA.SM]
	st.handlerCalls++
	if tr := e.dev.Trace; tr != nil {
		tr.Span(obs.PidDevice, w.CTA.SM, w.code.spans[id],
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
		if w.Thread(l).guardPasses(src.Reg, src.Neg) {
			mask |= 1 << l
		}
	})
	d := in.Dsts[0]
	switch in.Mods.Vote {
	case sass.VoteBALLOT:
		Lanes(exec, func(l int) { w.Thread(l).WriteReg(d.Reg, mask) })
	case sass.VoteALL:
		v := mask == exec
		Lanes(exec, func(l int) { w.Thread(l).WritePred(d.Reg, v) })
	case sass.VoteANY:
		v := mask != 0
		Lanes(exec, func(l int) { w.Thread(l).WritePred(d.Reg, v) })
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
		v, _ := e.ReadSrc(w.Thread(l), in.Srcs[0])
		vals[l] = v
	})
	var results [WarpSize]uint32
	var valid [WarpSize]bool
	var outerErr error
	Lanes(exec, func(l int) {
		b, err := e.ReadSrc(w.Thread(l), in.Srcs[1])
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
		w.Thread(l).WriteReg(rd.Reg, results[l])
		if pd.Kind == sass.OpdPred {
			w.Thread(l).WritePred(pd.Reg, valid[l])
		}
	})
	return nil
}

// issueCost is the base pipeline cost of one warp instruction, delegated
// to the canonical latency model in internal/sass so the ptxas list
// scheduler optimizes against exactly what the simulator charges.
func issueCost(in *sass.Instruction) int { return sass.IssueCost(in) }
