package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() { register(sgemmSpec()) }

const sgemmTile = 16

// sgemmSpec is Parboil sgemm: C = A*B with 16x16 shared-memory tiling.
// Fully convergent control flow (its only branches are uniform tile loops),
// matching the paper's Table 1 row of zero divergent branches.
func sgemmSpec() *Spec { return sgemmVariant("parboil.sgemm", true) }

// sgemmVariant parameterizes the barrier that separates the inner
// dot-product reads from the next iteration's tile writes; dropping it
// produces the seeded race mutant (mutant.sgemm-nobar).
func sgemmVariant(name string, tailBar bool) *Spec {
	return &Spec{
		Name:      name,
		OutputTol: 1e-3,
		Datasets:  []string{"small", "medium"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("sgemm")
			b.ReqBlock(sgemmTile, sgemmTile, 1)
			pa := b.ParamU64("A")
			pb := b.ParamU64("B")
			pc := b.ParamU64("C")
			dimM := b.ParamU32("M")
			dimN := b.ParamU32("N")
			dimK := b.ParamU32("K")
			_ = dimM

			offA := b.F.AllocShared(sgemmTile * sgemmTile * 4)
			offB := b.F.AllocShared(sgemmTile * sgemmTile * 4)

			tx := b.TidX()
			ty := b.TidY()
			row := b.Mad(b.CtaY(), b.ImmU32(sgemmTile), ty)
			col := b.Mad(b.CtaX(), b.ImmU32(sgemmTile), tx)
			acc := b.Var(b.ImmF32(0))

			numTiles := b.ShrI(dimK, 4)
			// Shared byte offsets of this thread's slots.
			myA := b.AddI(b.ShlI(b.Mad(ty, b.ImmU32(sgemmTile), tx), 2), int64(offA))
			myB := b.AddI(b.ShlI(b.Mad(ty, b.ImmU32(sgemmTile), tx), 2), int64(offB))

			b.ForRange(b.Var(b.ImmU32(0)), numTiles, func(t ptx.Value) {
				// As[ty][tx] = A[row*K + t*16 + tx]
				aCol := b.Mad(t, b.ImmU32(sgemmTile), tx)
				aIdx := b.Mad(row, dimK, aCol)
				b.StSharedF32(myA, 0, b.LdGlobalF32(b.Index(pa, aIdx, 2), 0))
				// Bs[ty][tx] = B[(t*16+ty)*N + col]
				bRow := b.Mad(t, b.ImmU32(sgemmTile), ty)
				bIdx := b.Mad(bRow, dimN, col)
				b.StSharedF32(myB, 0, b.LdGlobalF32(b.Index(pb, bIdx, 2), 0))
				b.Bar()
				// acc += As[ty][k]*Bs[k][tx]
				rowBase := b.AddI(b.ShlI(b.Mul(ty, b.ImmU32(sgemmTile)), 2), int64(offA))
				colBase := b.AddI(b.ShlI(tx, 2), int64(offB))
				kk := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.SetpI(sass.CmpLT, kk, sgemmTile) }, func() {
					av := b.LdSharedF32(b.Add(rowBase, b.ShlI(kk, 2)), 0)
					bv := b.LdSharedF32(b.Mad(kk, b.ImmU32(sgemmTile*4), colBase), 0)
					b.Assign(acc, b.Fma(av, bv, acc))
					b.Assign(kk, b.AddI(kk, 1))
				})
				if tailBar {
					b.Bar()
				}
			})
			cIdx := b.Mad(row, dimN, col)
			b.StGlobalF32(b.Index(pc, cIdx, 2), 0, acc)
			f, err := b.Done()
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			mDim, nDim, kDim := 32, 32, 32
			if dataset == "medium" {
				mDim, nDim, kDim = 64, 64, 64
			}
			r := newRNG(11)
			a := r.f32s(mDim*kDim, -1, 1)
			bm := r.f32s(kDim*nDim, -1, 1)
			da := ctx.AllocF32("A", a)
			db := ctx.AllocF32("B", bm)
			dc := ctx.Malloc(uint64(4 * mDim * nDim))
			if _, err := ctx.LaunchKernel(prog, "sgemm", sim.LaunchParams{
				Grid:  sim.D2(nDim/sgemmTile, mDim/sgemmTile),
				Block: sim.D2(sgemmTile, sgemmTile),
				Args: []uint64{uint64(da), uint64(db), uint64(dc),
					uint64(mDim), uint64(nDim), uint64(kDim)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dc, mDim*nDim)
			if err != nil {
				return nil, err
			}
			want := make([]float32, mDim*nDim)
			for i := 0; i < mDim; i++ {
				for j := 0; j < nDim; j++ {
					var sum float64
					for k := 0; k < kDim; k++ {
						sum += float64(a[i*kDim+k]) * float64(bm[k*nDim+j])
					}
					want[i*nDim+j] = float32(sum)
				}
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-4, "sgemm")
			res.Stdout = fmt.Sprintf("sgemm %dx%dx%d %s\n", mDim, nDim, kDim, f32Summary(res.Output))
			return res, nil
		},
	}
}
