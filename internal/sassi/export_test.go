package sassi

import "sassi/internal/sass"

// InstrumentKernel is instrumentKernel, for tests that need the remap table
// it returns.
var InstrumentKernel = instrumentKernel

// RowGrain reports whether the mask and vector accessors, called now, find
// ABI argument 0's object, and argument 1's, at one address for every
// running lane, the precondition of reading them as stack rows.
func RowGrain(args HandlerArgs) (arg0, arg1 bool) {
	d := args.BP.d
	running := d.warp.Running()
	_, arg0 = params{d, ABIArg0}.object(running)
	_, arg1 = params{d, ABIArg1}.object(running)
	return arg0, arg1
}

// SiteLengths plans the site Instrument would inject at in under opts with
// the given live-register set, then emits it into buffers of outCap
// instructions and opsCap arena operands (negative: exactly the plan). It
// returns the planned and the emitted (instructions, operands, arena
// operands) and how many instructions the output buffer holds afterwards.
func SiteLengths(opts Options, in *sass.Instruction, live sass.RegSet, outCap, opsCap int) (planned, emitted [3]int, outLen int, err error) {
	k := &sass.Kernel{Name: "site", Instrs: []sass.Instruction{*in}}
	opts.BeforeHandler = "h"
	ij := &injector{prog: sass.NewProgram(), k: k, opts: &opts}
	st := ij.newSite(0, in, &live)
	l := ij.plan(st)
	if outCap < 0 {
		outCap, opsCap = l.instrs, l.arena
	}
	ij.out = make([]sass.Instruction, outCap)
	ij.ops = make([]sass.Operand, opsCap)
	err = ij.injectCall(st, 0, 0, []sass.Operand{sass.Sym(opts.BeforeHandler)})
	return [3]int{l.instrs, l.operands, l.arena}, [3]int{ij.n, ij.nops, ij.narena}, len(ij.out), err
}
