// Quickstart: author a kernel, instrument it before every instruction with
// the paper's Figure 3 categorizing handler, run it on the simulated GPU,
// and read back the device-resident counters.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"sassi"
)

func main() {
	// 1. Author a kernel against the PTX builder (the front-end analog):
	//    out[i] = a[i] + b[i] for i < n.
	b := sassi.NewKernel("vecadd")
	aPtr := b.ParamU64("a")
	bPtr := b.ParamU64("b")
	outPtr := b.ParamU64("out")
	n := b.ParamU32("n")
	i := b.GlobalTidX()
	b.If(b.Setp(sassi.CmpLT, i, n), func() {
		av := b.LdGlobalF32(b.Index(aPtr, i, 2), 0)
		bv := b.LdGlobalF32(b.Index(bPtr, i, 2), 0)
		b.StGlobalF32(b.Index(outPtr, i, 2), 0, b.Add(av, bv))
	})

	// 2. Compile to SASS (backend + register allocation), then let SASSI
	//    inject a call before every machine instruction.
	prog, err := sassi.CompileModule(b)
	if err != nil {
		log.Fatal(err)
	}
	if err := sassi.Instrument(prog, sassi.InstrumentOptions{
		Where:         sassi.BeforeAll,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "sassi_before_handler",
	}); err != nil {
		log.Fatal(err)
	}

	// 3. Set up the device, device-resident counters, and the handler —
	//    a direct translation of the paper's Figure 3.
	ctx := sassi.NewContext(sassi.KeplerK10())
	counters := ctx.Malloc(7 * 8)

	rt := sassi.NewRuntime(prog)
	rt.MustRegister(&sassi.Handler{
		Name: "sassi_before_handler",
		What: sassi.PassMemoryInfo,
		Fn: func(w *sassi.WarpCtx, args sassi.HandlerArgs) {
			// A handler runs once per warp; the per-thread body of the
			// CUDA original becomes a loop over the running lanes.
			bp := args.BP
			for l := w.First(); l >= 0; l = w.Next(l) {
				c := w.Lane(l)
				if bp.IsMem() {
					c.AtomicAdd64(uint64(counters)+0*8, 1)
					if args.MP != nil && args.MP.Width() > 4 {
						c.AtomicAdd64(uint64(counters)+1*8, 1)
					}
				}
				if bp.IsControlXfer() {
					c.AtomicAdd64(uint64(counters)+2*8, 1)
				}
				if bp.IsSync() {
					c.AtomicAdd64(uint64(counters)+3*8, 1)
				}
				if bp.IsNumeric() {
					c.AtomicAdd64(uint64(counters)+4*8, 1)
				}
				if bp.IsTexture() {
					c.AtomicAdd64(uint64(counters)+5*8, 1)
				}
				c.AtomicAdd64(uint64(counters)+6*8, 1)
			}
		},
	})
	rt.Attach(ctx.Device())

	// 4. Host code: allocate, upload, launch, download — CUDA style.
	const N = 1 << 12
	host := make([]float32, N)
	for i := range host {
		host[i] = float32(i)
	}
	da := ctx.AllocF32("a", host)
	db := ctx.AllocF32("b", host)
	dout := ctx.Malloc(4 * N)
	stats, err := ctx.LaunchKernel(prog, "vecadd", sassi.LaunchParams{
		Grid: sassi.D1((N + 255) / 256), Block: sassi.D1(256),
		Args: []uint64{uint64(da), uint64(db), uint64(dout), N},
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := ctx.ReadF32(dout, N)
	if err != nil {
		log.Fatal(err)
	}
	for i := range out {
		if math.Abs(float64(out[i]-2*host[i])) > 1e-6 {
			log.Fatalf("out[%d] = %f, want %f", i, out[i], 2*host[i])
		}
	}

	// 5. Collect the counters (CUPTI-style).
	vals, err := ctx.ReadU64(counters, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vecadd verified on the simulated GPU")
	fmt.Printf("dynamic instruction profile (N=%d threads):\n", N)
	names := []string{"memory", "wide memory", "control xfer", "sync", "numeric", "texture", "total"}
	for i, v := range vals {
		fmt.Printf("  %-14s %8d\n", names[i], v)
	}
	fmt.Printf("kernel stats: warp instrs=%d (injected %d), handler calls=%d, modeled cycles=%d\n",
		stats.WarpInstrs, stats.InjectedWarpInstrs, stats.HandlerCalls, stats.Cycles)
}
