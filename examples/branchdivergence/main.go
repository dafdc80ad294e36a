// Case Study I (paper §5): per-branch SIMT control-flow profiling of a BFS
// kernel across graph datasets, using the Figure 4 handler (ballot/popc/ffs
// across the warp).
//
//	go run ./examples/branchdivergence
package main

import (
	"fmt"
	"log"

	"sassi"
)

func main() {
	spec, ok := sassi.GetWorkload("parboil.bfs")
	if !ok {
		log.Fatal("parboil.bfs not registered")
	}
	for _, dataset := range []string{"1M", "NY", "SF", "UT"} {
		prog, err := spec.Compile(sassi.CompileOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ctx := sassi.NewContext(sassi.KeplerK10())

		// Wire the Figure 4 handler: SASSI inserts a call before every
		// conditional branch, passing branch-direction info.
		prof := sassi.NewBranchProfiler(ctx)
		if err := sassi.Instrument(prog, prof.Options()); err != nil {
			log.Fatal(err)
		}
		rt := sassi.NewRuntime(prog)
		rt.MustRegister(prof.Handler())
		rt.Attach(ctx.Device())

		res, err := spec.Run(ctx, prog, dataset)
		if err != nil {
			log.Fatal(err)
		}
		if res.VerifyErr != nil {
			log.Fatalf("%s: instrumented run failed verification: %v", dataset, res.VerifyErr)
		}
		s, err := prof.Summarize()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("bfs(%-2s): static branches=%d divergent=%d (%.0f%%) | dynamic=%d divergent=%d (%.1f%%)\n",
			dataset, s.StaticBranches, s.StaticDivergent, s.StaticDivergentPc,
			s.DynamicBranches, s.DynamicDivergent, s.DynDivergentPc)
		rows, err := prof.Results()
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("    branch 0x%08x: executed %6d, divergent %6d\n",
				uint32(r.InsAddr), r.Total, r.Divergent)
		}
	}
}
