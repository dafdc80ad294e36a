package sassi

import "sassi/internal/sass"

// InstrumentKernel is instrumentKernel, for tests that need the remap table
// it returns.
var InstrumentKernel = instrumentKernel

// SiteLengths plans the site Instrument would inject at in under opts with
// the given live-register set, then emits it into buffers of outCap
// instructions and opsCap operands (negative: exactly the plan). It returns
// the planned and the emitted (instructions, operands) and how many
// instructions the output buffer holds afterwards.
func SiteLengths(opts Options, in *sass.Instruction, live sass.RegSet, outCap, opsCap int) (planned, emitted [2]int, outLen int, err error) {
	k := &sass.Kernel{Name: "site", Instrs: []sass.Instruction{*in}}
	ij := &injector{prog: sass.NewProgram(), k: k, opts: &opts}
	st := ij.newSite(0, in, &live)
	l := ij.plan(st)
	if outCap < 0 {
		outCap, opsCap = l.instrs, l.operands
	}
	ij.out = make([]sass.Instruction, outCap)
	ij.ops = make([]sass.Operand, opsCap)
	err = ij.injectCall(st, 0, 0, "h")
	return [2]int{l.instrs, l.operands}, [2]int{ij.n, ij.nops}, len(ij.out), err
}
