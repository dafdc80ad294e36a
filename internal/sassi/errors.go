package sassi

import (
	"fmt"

	"sassi/internal/device"
	"sassi/internal/sass"
)

// Error is the structured error type instrumentation failures carry: it
// records which kernel (and, when known, which original instruction's site)
// the failure belongs to, so tooling can point at a position instead of
// re-parsing a message string.
type Error struct {
	// Kernel is the kernel being instrumented; empty for program-level
	// failures (bad options, cross-kernel verification).
	Kernel string
	// Site is the original-instruction index of the site being injected,
	// or -1 when the failure is not tied to one site.
	Site int
	// Err is the underlying cause.
	Err error
}

// Error renders the position prefix followed by the cause.
func (e *Error) Error() string {
	switch {
	case e.Kernel == "":
		return fmt.Sprintf("sassi: %v", e.Err)
	case e.Site < 0:
		return fmt.Sprintf("sassi: kernel %s: %v", e.Kernel, e.Err)
	default:
		return fmt.Sprintf("sassi: kernel %s: site @%04x: %v",
			e.Kernel, sass.InsOffset(e.Site), e.Err)
	}
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// HandlerError is the structured error a failed handler dispatch returns:
// a simulated memory fault raised by a device accessor, or any other panic
// in handler code, located by handler, kernel, site and lane.
type HandlerError struct {
	// Handler is the JCAL symbol; Kernel the kernel being executed.
	Handler string
	Kernel  string
	// Site is the instrumentation site's id (BeforeParams.ID), or -1 when
	// the parameter object itself could not be read. PC is the warp's
	// instruction index in the instrumented kernel at the call.
	Site int32
	PC   int
	// Lane is the lane whose accessor faulted — for other panics, the lane
	// the handler last touched — or -1 before any lane was touched.
	Lane int
	// Err is the cause: the memory fault, the panic value when it was an
	// error, or its formatted text.
	Err error
}

func (e *HandlerError) Error() string {
	return fmt.Sprintf("sassi: handler %s: kernel %s: site %d pc %d: lane %d: %v",
		e.Handler, e.Kernel, e.Site, e.PC, e.Lane, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *HandlerError) Unwrap() error { return e.Err }

// newHandlerError builds the error for panic value r raised under d.
func newHandlerError(h *Handler, d *dispatch, r any) *HandlerError {
	sw := d.warp.Sim()
	e := &HandlerError{Handler: h.Name, Kernel: sw.Kernel().Name, Site: -1, PC: sw.PC, Lane: d.warp.CurLane()}
	switch v := r.(type) {
	case device.Fault:
		e.Lane, e.Err = v.Lane, v.Err
	case error:
		e.Err = fmt.Errorf("panic: %w", v)
	default:
		e.Err = fmt.Errorf("panic: %v", v)
	}
	func() {
		defer func() { _ = recover() }() // a wild BP pointer leaves Site at -1
		e.Site = d.bp.ID()
	}()
	return e
}
