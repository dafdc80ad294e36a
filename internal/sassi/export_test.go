package sassi

import (
	"sassi/internal/analysis"
	"sassi/internal/sass"
)

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

// EmitSite emits the site Instrument would inject before instruction 0 of
// k under what, with k's live registers there, into out and ops (nil to
// count only). It returns the instructions and arena operands it counted
// and the two buffers as the emitter left them.
func EmitSite(k *sass.Kernel, what What, out []sass.Instruction, ops []sass.Operand) (n, narena int, outAfter []sass.Instruction, opsAfter []sass.Operand, err error) {
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	li := analysis.Liveness(cfg)
	opts := Options{What: what, BeforeHandler: "h"}
	ij := &injector{prog: sass.NewProgram(), opts: &opts, out: out, ops: ops}
	ij.injectCall(ij.newSite(0, &k.Instrs[0], &li.LiveIn[0]), 0, 0, []sass.Operand{sass.Sym(opts.BeforeHandler)})
	return ij.n, ij.narena, ij.out, ij.ops, nil
}
