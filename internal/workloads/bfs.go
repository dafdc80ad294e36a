package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() {
	register(bfsParboilSpec())
	register(bfsRodiniaSpec())
}

const bfsInf = 0xffffffff

// buildBFSParboil builds the frontier-queue BFS kernel: each thread takes
// one frontier node, scans its (variable-length) adjacency list, labels
// unvisited neighbors, and appends them to the next frontier with a global
// atomic — data-dependent branching and irregular gathers throughout.
func buildBFSParboil() (*ptx.Func, error) {
	b := ptx.NewKernel("bfs_kernel")
	rowPtr := b.ParamU64("rowPtr")
	cols := b.ParamU64("cols")
	levels := b.ParamU64("levels")
	frontier := b.ParamU64("frontier")
	next := b.ParamU64("next")
	nextCnt := b.ParamU64("nextCnt")
	fsize := b.ParamU32("fsize")
	level := b.ParamU32("level")

	tid := b.GlobalTidX()
	b.If(b.Setp(sass.CmpLT, tid, fsize), func() {
		node := b.LdGlobalU32(b.Index(frontier, tid, 2), 0)
		start := b.LdGlobalU32(b.Index(rowPtr, node, 2), 0)
		end := b.LdGlobalU32(b.Index(rowPtr, node, 2), 4)
		j := b.Var(start)
		b.While(func() ptx.Value { return b.Setp(sass.CmpLT, j, end) }, func() {
			nbr := b.LdGlobalU32(b.Index(cols, j, 2), 0)
			lv := b.LdGlobalU32(b.Index(levels, nbr, 2), 0)
			unseen := b.SetpI(sass.CmpEQ, lv, int64(int32(-1)))
			b.If(unseen, func() {
				b.StGlobalU32(b.Index(levels, nbr, 2), 0, b.AddI(level, 1))
				pos := b.AtomAddGlobal(nextCnt, 0, b.ImmU32(1))
				b.StGlobalU32(b.Index(next, pos, 2), 0, nbr)
			})
			b.Assign(j, b.AddI(j, 1))
		})
	})
	return b.Done()
}

// bfsParboilSpec is Parboil bfs with the paper's four datasets mapped to
// synthetic graphs of matching shape: "1M" is a random graph (high degree,
// small diameter); NY/SF/UT are road-network-like sparse grids.
func bfsParboilSpec() *Spec {
	return &Spec{
		Name:     "parboil.bfs",
		Datasets: []string{"1M", "NY", "SF", "UT"},
		Build: func() (*ptx.Module, error) {
			f, err := buildBFSParboil()
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			g := bfsGraph(dataset)
			src := 0

			dRow := ctx.AllocU32("rowPtr", g.RowPtr)
			dCol := ctx.AllocU32("cols", g.Cols)
			lv := make([]uint32, g.N)
			for i := range lv {
				lv[i] = bfsInf
			}
			lv[src] = 0
			dLev := ctx.AllocU32("levels", lv)
			// Frontier double buffers sized to the duplicate-enqueue worst
			// case (every edge enqueues its head once).
			cap := uint64(4 * (g.Edges() + g.N + 64))
			dFrontA := ctx.Malloc(cap)
			dFrontB := ctx.Malloc(cap)
			dCnt := ctx.Malloc(8)
			_ = ctx.Memset32(dFrontA, uint32(src), 1)

			cur, nxt := dFrontA, dFrontB
			fsize := uint32(1)
			for level := uint32(0); fsize > 0 && level < uint32(g.N); level++ {
				_ = ctx.Memset32(dCnt, 0, 1)
				if _, err := ctx.LaunchKernel(prog, "bfs_kernel", sim.LaunchParams{
					Grid: sim.D1((int(fsize) + 127) / 128), Block: sim.D1(128),
					Args: []uint64{uint64(dRow), uint64(dCol), uint64(dLev),
						uint64(cur), uint64(nxt), uint64(dCnt),
						uint64(fsize), uint64(level)},
				}); err != nil {
					return nil, err
				}
				cnt, err := ctx.ReadU32(dCnt, 1)
				if err != nil {
					return nil, err
				}
				fsize = cnt[0]
				if fsize > uint32(g.N) {
					// Duplicates can only overflow on corrupted runs; clamp
					// so the (fault-injected) app terminates.
					fsize = uint32(g.N)
				}
				cur, nxt = nxt, cur
			}

			got, err := ctx.ReadU32(dLev, g.N)
			if err != nil {
				return nil, err
			}
			want := cpuBFS(g, src)
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "bfs levels")
			reach := 0
			for _, l := range got {
				if l != bfsInf {
					reach++
				}
			}
			res.Stdout = fmt.Sprintf("bfs %s n=%d reached=%d checksum=%08x\n",
				dataset, g.N, reach, checksum(res.Output))
			return res, nil
		},
	}
}

// buildBFSRodinia builds the two level-synchronous Rodinia kernels.
func buildBFSRodinia() (*ptx.Module, error) {
	m := ptx.NewModule()

	// Kernel 1: expand the current mask.
	b := ptx.NewKernel("bfs_kernel1")
	rowPtr := b.ParamU64("rowPtr")
	cols := b.ParamU64("cols")
	mask := b.ParamU64("mask")
	updating := b.ParamU64("updating")
	visited := b.ParamU64("visited")
	cost := b.ParamU64("cost")
	n := b.ParamU32("n")
	tid := b.GlobalTidX()
	inRange := b.Setp(sass.CmpLT, tid, n)
	b.If(inRange, func() {
		m1 := b.LdGlobalU32(b.Index(mask, tid, 2), 0)
		b.If(b.SetpI(sass.CmpNE, m1, 0), func() {
			b.StGlobalU32(b.Index(mask, tid, 2), 0, b.ImmU32(0))
			myCost := b.LdGlobalU32(b.Index(cost, tid, 2), 0)
			start := b.LdGlobalU32(b.Index(rowPtr, tid, 2), 0)
			end := b.LdGlobalU32(b.Index(rowPtr, tid, 2), 4)
			j := b.Var(start)
			b.While(func() ptx.Value { return b.Setp(sass.CmpLT, j, end) }, func() {
				nbr := b.LdGlobalU32(b.Index(cols, j, 2), 0)
				vis := b.LdGlobalU32(b.Index(visited, nbr, 2), 0)
				b.If(b.SetpI(sass.CmpEQ, vis, 0), func() {
					b.StGlobalU32(b.Index(cost, nbr, 2), 0, b.AddI(myCost, 1))
					b.StGlobalU32(b.Index(updating, nbr, 2), 0, b.ImmU32(1))
				})
				b.Assign(j, b.AddI(j, 1))
			})
		})
	})
	f1, err := b.Done()
	if err != nil {
		return nil, err
	}
	m.Add(f1)

	// Kernel 2: commit the updating mask.
	b2 := ptx.NewKernel("bfs_kernel2")
	mask2 := b2.ParamU64("mask")
	updating2 := b2.ParamU64("updating")
	visited2 := b2.ParamU64("visited")
	changed := b2.ParamU64("changed")
	n2 := b2.ParamU32("n")
	tid2 := b2.GlobalTidX()
	b2.If(b2.Setp(sass.CmpLT, tid2, n2), func() {
		u := b2.LdGlobalU32(b2.Index(updating2, tid2, 2), 0)
		b2.If(b2.SetpI(sass.CmpNE, u, 0), func() {
			b2.StGlobalU32(b2.Index(mask2, tid2, 2), 0, b2.ImmU32(1))
			b2.StGlobalU32(b2.Index(visited2, tid2, 2), 0, b2.ImmU32(1))
			b2.StGlobalU32(b2.Index(updating2, tid2, 2), 0, b2.ImmU32(0))
			b2.StGlobalU32(changed, 0, b2.ImmU32(1))
		})
	})
	f2, err := b2.Done()
	if err != nil {
		return nil, err
	}
	m.Add(f2)
	return m, nil
}

// bfsRodiniaSpec is Rodinia bfs: level-synchronous over all nodes, two
// kernels per level.
func bfsRodiniaSpec() *Spec {
	return &Spec{
		Name:     "rodinia.bfs",
		Datasets: []string{"default"},
		Build:    buildBFSRodinia,
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			g := genUniformGraph(4096, 6, 202)
			src := 0
			dRow := ctx.AllocU32("rowPtr", g.RowPtr)
			dCol := ctx.AllocU32("cols", g.Cols)
			maskInit := make([]uint32, g.N)
			maskInit[src] = 1
			visInit := make([]uint32, g.N)
			visInit[src] = 1
			costInit := make([]uint32, g.N)
			for i := range costInit {
				costInit[i] = bfsInf
			}
			costInit[src] = 0
			dMask := ctx.AllocU32("mask", maskInit)
			dUpd := ctx.AllocU32("updating", make([]uint32, g.N))
			dVis := ctx.AllocU32("visited", visInit)
			dCost := ctx.AllocU32("cost", costInit)
			dChanged := ctx.Malloc(4)

			grid := sim.D1((g.N + 127) / 128)
			for iter := 0; iter < g.N; iter++ {
				_ = ctx.Memset32(dChanged, 0, 1)
				if _, err := ctx.LaunchKernel(prog, "bfs_kernel1", sim.LaunchParams{
					Grid: grid, Block: sim.D1(128),
					Args: []uint64{uint64(dRow), uint64(dCol), uint64(dMask),
						uint64(dUpd), uint64(dVis), uint64(dCost), uint64(g.N)},
				}); err != nil {
					return nil, err
				}
				if _, err := ctx.LaunchKernel(prog, "bfs_kernel2", sim.LaunchParams{
					Grid: grid, Block: sim.D1(128),
					Args: []uint64{uint64(dMask), uint64(dUpd), uint64(dVis),
						uint64(dChanged), uint64(g.N)},
				}); err != nil {
					return nil, err
				}
				ch, err := ctx.ReadU32(dChanged, 1)
				if err != nil {
					return nil, err
				}
				if ch[0] == 0 {
					break
				}
			}
			got, err := ctx.ReadU32(dCost, g.N)
			if err != nil {
				return nil, err
			}
			want := cpuBFS(g, src)
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "bfs cost")
			res.Stdout = fmt.Sprintf("rodinia-bfs n=%d checksum=%08x\n", g.N, checksum(res.Output))
			return res, nil
		},
	}
}
