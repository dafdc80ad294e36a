package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() { register(callTreeSpec()) }

// callTreeSpec is the CFI demo workload: a SASS-authored kernel with a real
// CAL/RET call tree (the PTX builder never emits one) plus SSY/SYNC
// divergence inside the callee, so every structure the CFI checker protects
// — call stack, return addresses, divergence stack — is exercised on a
// clean run. Per element: out[g] = (in[g]*2 + 5) + (g even ? 7 : 11).
func callTreeSpec() *Spec {
	return &Spec{
		Name:         "demo.calltree",
		Datasets:     []string{"small"},
		BuildProgram: buildCallTree,
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			const n = callTreeThreads * callTreeCTAs
			in := make([]uint32, n)
			for i := range in {
				in[i] = uint32(i*7 + 3)
			}
			din := ctx.AllocU32("in", in)
			dout := ctx.Malloc(4 * n)
			if _, err := ctx.LaunchKernel(prog, "calltree", sim.LaunchParams{
				Grid: sim.D1(callTreeCTAs), Block: sim.D1(callTreeThreads),
				Args: []uint64{uint64(din), uint64(dout)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dout, n)
			if err != nil {
				return nil, err
			}
			want := make([]uint32, n)
			for g := range want {
				x := in[g]*2 + 5
				if g%2 == 0 {
					x += 7
				} else {
					x += 11
				}
				want[g] = x
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "calltree")
			res.Stdout = fmt.Sprintf("calltree n=%d checksum=%08x\n", n, checksum(res.Output))
			return res, nil
		},
	}
}

const (
	callTreeCTAs    = 2
	callTreeThreads = 64
)

// buildCallTree assembles the calltree kernel by hand. Layout:
//
//	entry:  load params, g = ctaid*ntid+tid, x = in[g], CAL fn1,
//	        out[g] = x, EXIT
//	fn1:    CAL fn2, then parity divergence (+7 even / +11 odd)
//	        reconverged through SSY/SYNC before the RET
//	fn2:    x = x*2 + 5, RET
//
// Registers (R1 is the ABI stack pointer and stays untouched so the SASSI
// save/restore sequences can spill through it): R2:R3 in, R4:R5 out,
// R6 g, R7 x, R8:R9 address, R10 scratch.
func buildCallTree() (*sass.Program, error) {
	op := func(o sass.Opcode, dsts, srcs []sass.Operand, mods sass.Mods) sass.Instruction {
		in := sass.New(o, dsts, srcs)
		in.Mods = mods
		return in
	}
	rr := func(r uint8) []sass.Operand { return []sass.Operand{sass.R(r)} }

	k := &sass.Kernel{
		Name: "calltree", NumRegs: 11, NumPreds: 2,
		BlockDim: [3]int{callTreeThreads, 1, 1},
	}
	inOff := k.AddParam("in", 8)
	outOff := k.AddParam("out", 8)
	k.Instrs = []sass.Instruction{
		// entry
		sass.New(sass.OpMOV, rr(2), []sass.Operand{sass.CMem(0, int64(inOff))}),
		sass.New(sass.OpMOV, rr(3), []sass.Operand{sass.CMem(0, int64(inOff)+4)}),
		sass.New(sass.OpMOV, rr(4), []sass.Operand{sass.CMem(0, int64(outOff))}),
		sass.New(sass.OpMOV, rr(5), []sass.Operand{sass.CMem(0, int64(outOff)+4)}),
		sass.New(sass.OpS2R, rr(6), []sass.Operand{sass.SReg(sass.SRCtaidX)}),
		sass.New(sass.OpS2R, rr(7), []sass.Operand{sass.SReg(sass.SRNTidX)}),
		sass.New(sass.OpS2R, rr(8), []sass.Operand{sass.SReg(sass.SRTidX)}),
		sass.New(sass.OpIMAD, rr(6), []sass.Operand{sass.R(6), sass.R(7), sass.R(8)}),
		sass.New(sass.OpSHL, rr(8), []sass.Operand{sass.R(6), sass.Imm(2)}),
		op(sass.OpIADD, rr(8), []sass.Operand{sass.R(2), sass.R(8)}, sass.Mods{SetCC: true}),
		op(sass.OpIADD, rr(9), []sass.Operand{sass.R(3), sass.Imm(0)}, sass.Mods{X: true}),
		op(sass.OpLDG, rr(7), []sass.Operand{sass.Mem(8, 0)}, sass.Mods{E: true}),
		sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("fn1")}),
		sass.New(sass.OpSHL, rr(8), []sass.Operand{sass.R(6), sass.Imm(2)}),
		op(sass.OpIADD, rr(8), []sass.Operand{sass.R(4), sass.R(8)}, sass.Mods{SetCC: true}),
		op(sass.OpIADD, rr(9), []sass.Operand{sass.R(5), sass.Imm(0)}, sass.Mods{X: true}),
		op(sass.OpSTG, nil, []sass.Operand{sass.Mem(8, 0), sass.R(7)}, sass.Mods{E: true}),
		sass.New(sass.OpEXIT, nil, nil),
		// fn1
		sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("fn2")}),
		op(sass.OpLOP, rr(10), []sass.Operand{sass.R(6), sass.Imm(1)}, sass.Mods{Logic: sass.LogicAND}),
		op(sass.OpISETP, []sass.Operand{sass.P(0)},
			[]sass.Operand{sass.R(10), sass.Imm(0), sass.P(sass.PT)},
			sass.Mods{Cmp: sass.CmpNE, Unsigned: true, Logic: sass.LogicAND}),
		sass.New(sass.OpSSY, nil, []sass.Operand{sass.Label("reconv")}),
		sass.New(sass.OpBRA, nil, []sass.Operand{sass.Label("odd")}).WithGuard(sass.PredGuard{Reg: 0}),
		sass.New(sass.OpIADD, rr(7), []sass.Operand{sass.R(7), sass.Imm(7)}),
		sass.New(sass.OpSYNC, nil, nil),
		// odd
		sass.New(sass.OpIADD, rr(7), []sass.Operand{sass.R(7), sass.Imm(11)}),
		sass.New(sass.OpSYNC, nil, nil),
		// reconv
		sass.New(sass.OpRET, nil, nil),
		// fn2
		sass.New(sass.OpSHL, rr(7), []sass.Operand{sass.R(7), sass.Imm(1)}),
		sass.New(sass.OpIADD, rr(7), []sass.Operand{sass.R(7), sass.Imm(5)}),
		sass.New(sass.OpRET, nil, nil),
	}
	k.Labels = map[string]int{"fn1": 18, "odd": 25, "reconv": 27, "fn2": 28}
	if err := k.ResolveLabels(); err != nil {
		return nil, err
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	return prog, nil
}
