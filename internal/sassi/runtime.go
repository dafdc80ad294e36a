package sassi

import (
	"fmt"

	"sassi/internal/device"
	"sassi/internal/obs"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// HandlerArgs carries the ABI arguments into a handler as lane-indexed
// views. BP is always present; exactly one of MP/CBP/RP is set when the
// site was instrumented with a matching What flag, mirroring the
// two-pointer handler signatures of the paper's case studies. The views
// are valid for the duration of the dispatch only.
type HandlerArgs struct {
	BP  BeforeParams
	MP  *MemoryParams
	CBP *CondBranchParams
	RP  *RegisterParams
}

// HandlerFunc is a user instrumentation handler, the analog of the paper's
// CUDA handler functions. It is called once per JCAL dispatch, on the
// goroutine simulating the warp's SM, with the warp-synchronous view of
// the threads the CUDA code would run on (see package device). SMs execute
// concurrently: state shared between dispatches needs synchronization,
// warp-scoped scratch is just the function's locals.
type HandlerFunc func(w *device.Warp, args HandlerArgs)

// Handler binds a symbol name to a handler function.
type Handler struct {
	// Name is the JCAL symbol (e.g. "sassi_before_handler").
	Name string
	// Fn is the handler body.
	Fn HandlerFunc
	// What tells the runtime how to interpret the second ABI argument;
	// it must match the What used at instrumentation time.
	What What
}

// dispatch is the per-dispatch state a handler sees through pointers. One
// lives in each SM's sim.Device.DispatchState slot, created by the SM's
// first dispatch and reused by every later one, so that a dispatch
// allocates nothing.
type dispatch struct {
	warp device.Warp
	bp   BeforeParams
	mp   MemoryParams
	cbp  CondBranchParams
	rp   RegisterParams
	// spillReg[:spillN] is the site's spill map (slot -> GPR number),
	// cached by BeforeParams.spillSlot; spillN < 0 means not yet read.
	spillN   int
	spillReg [16]uint8
}

// dispatchOf returns SM sm's dispatch state on dev.
func dispatchOf(dev *sim.Device, sm int) *dispatch {
	slot := dev.DispatchState(sm)
	d, ok := (*slot).(*dispatch)
	if !ok {
		d = new(dispatch)
		d.bp = BeforeParams{params{d, ABIArg0}}
		xp := params{d, ABIArg1}
		d.mp, d.cbp, d.rp = MemoryParams{xp}, CondBranchParams{xp}, RegisterParams{xp, d.bp}
		*slot = d
	}
	return d
}

// Runtime links handlers to an instrumented program and dispatches JCALs
// from the simulator — the role the display driver + nvlink play for real
// SASSI.
type Runtime struct {
	prog *sass.Program
	byID []*Handler // by handler id; nil where none is registered

	// Metrics, when non-nil, counts dispatches per handler symbol
	// (handlers.dispatch.<symbol>) and the warp occupancy of each call
	// (handlers.dispatch_active_lanes). Set it before Register: counters
	// resolve once there, so Dispatch does no registry lookups.
	Metrics *obs.Registry

	dispatches  []*obs.Counter // by handler id
	activeLanes *obs.Histogram
}

// NewRuntime creates a runtime for one instrumented program.
func NewRuntime(prog *sass.Program) *Runtime {
	return &Runtime{prog: prog}
}

// Register links a handler to its symbol. Unresolved handler symbols fault
// at JCAL time, like an unlinked reference.
func (rt *Runtime) Register(h *Handler) error {
	if h.Name == "" || h.Fn == nil {
		return fmt.Errorf("sassi: handler needs a name and a function")
	}
	id, ok := rt.prog.Handlers[h.Name]
	if !ok {
		return fmt.Errorf("sassi: program has no JCAL site for symbol %q (was it instrumented?)", h.Name)
	}
	rt.byID = grow(rt.byID, id)
	rt.byID[id] = h
	if rt.Metrics != nil {
		if rt.activeLanes == nil {
			rt.activeLanes = rt.Metrics.Histogram(obs.MHandlerActiveLanes)
		}
		rt.dispatches = grow(rt.dispatches, id)
		rt.dispatches[id] = rt.Metrics.Counter(obs.MHandlerDispatchPrefix + h.Name)
	}
	return nil
}

// grow returns s extended with zero values to hold index i.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// MustRegister is Register, panicking on error.
func (rt *Runtime) MustRegister(h *Handler) {
	if err := rt.Register(h); err != nil {
		panic(err)
	}
}

// Dispatch implements sim.Dispatcher: it calls the handler once for the
// warp. The injected code has marshalled each active lane's argument
// pointers into its ABI registers; the views in HandlerArgs decode them on
// demand. A simulated memory fault or any other panic in the handler
// aborts the dispatch and is returned as a *HandlerError, which fails the
// launch like any kernel fault.
func (rt *Runtime) Dispatch(dev *sim.Device, w *sim.Warp, handlerID int) (err error) {
	var h *Handler
	if uint(handlerID) < uint(len(rt.byID)) {
		h = rt.byID[handlerID]
	}
	if h == nil {
		return fmt.Errorf("sassi: JCAL to unregistered handler id %d", handlerID)
	}
	if handlerID < len(rt.dispatches) && rt.dispatches[handlerID] != nil {
		rt.dispatches[handlerID].Inc()
		rt.activeLanes.Observe(uint64(w.NumActive()))
	}
	if w.ActiveMask() == 0 {
		return nil
	}
	d := dispatchOf(dev, w.CTA.SM)
	d.warp.Bind(dev, w)
	d.spillN = -1
	defer func() {
		if r := recover(); r != nil {
			err = newHandlerError(h, d, r)
		}
		d.warp = device.Warp{} // the SM's state must not pin the warp
	}()
	args := HandlerArgs{BP: d.bp}
	// The second pointer is null at sites with no extra object (e.g. a
	// BAR under PassMemoryInfo), uniformly across the warp.
	if t := w.Thread(d.warp.First()); t.ReadReg(ABIArg1)|t.ReadReg(ABIArg1+1) != 0 {
		switch {
		case h.What&PassMemoryInfo != 0:
			args.MP = &d.mp
		case h.What&PassCondBranchInfo != 0:
			args.CBP = &d.cbp
		case h.What&PassRegisterInfo != 0:
			args.RP = &d.rp
		}
	}
	h.Fn(&d.warp, args)
	return nil
}

// Attach installs the runtime as the device's dispatcher.
func (rt *Runtime) Attach(dev *sim.Device) { dev.Dispatcher = rt }
