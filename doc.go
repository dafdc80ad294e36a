// Package sassi is a Go reproduction of "Flexible Software Profiling of
// GPU Architectures" (ISCA 2015): the SASSI selective instrumentation
// framework, rebuilt on a self-contained GPU stack.
//
// The package is a facade over the full system:
//
//   - a PTX-like virtual ISA and kernel-authoring Builder (internal/ptx),
//   - a backend compiler with liveness-driven register allocation
//     (internal/ptxas),
//   - a SASS-like machine ISA (internal/sass),
//   - a SIMT functional + cycle-approximate simulator with a coalescing
//     memory hierarchy (internal/sim, internal/mem),
//   - the SASSI instrumentor itself: a final compiler pass that injects
//     ABI-compliant calls to user handlers before/after selected machine
//     instructions (internal/sassi),
//   - a device-side handler runtime with warp collectives
//     (internal/device), CUDA-like host runtime (internal/cuda), and a
//     CUPTI-like callback layer (internal/cupti),
//   - the paper's case-study handler library (internal/handlers), fault
//     injection campaigns (internal/faults), a Parboil/Rodinia/miniFE-like
//     workload suite (internal/workloads), and the evaluation harness that
//     regenerates every table and figure (internal/experiments).
//
// Five commands drive the same workflow from the shell. cmd/sassi compiles
// a workload (or a seed-buggy mutant), instruments it with one tool
// (-tool opcount, branch, memdiv, value, cfi or racecheck) and runs
// it; cmd/sassi-lint runs the static verifier and its checks;
// cmd/sassi-fi runs an error-injection campaign; cmd/experiments
// regenerates the tables and figures, plus the cfi, sched and other
// studies; cmd/sassi-difftest checks that instrumentation is transparent
// on generated kernels.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	b := sassi.NewKernel("vecadd")
//	... author the kernel with the builder ...
//	prog, _ := sassi.CompileModule(b)
//	_ = sassi.Instrument(prog, sassi.InstrumentOptions{
//	    Where:         sassi.BeforeAll,
//	    BeforeHandler: "my_handler",
//	})
//	ctx := sassi.NewContext(sassi.KeplerK10())
//	rt := sassi.NewRuntime(prog)
//	rt.MustRegister(&sassi.Handler{Name: "my_handler", Fn: func(w *sassi.WarpCtx, a sassi.HandlerArgs) {
//	    for l := w.First(); l >= 0; l = w.Next(l) { ... w.Lane(l) ... }
//	}})
//	rt.Attach(ctx.Device())
//	ctx.LaunchKernel(prog, "vecadd", sassi.LaunchParams{...})
package sassi
