package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() {
	register(spmvSpec())
	register(minifeSpec("minife.csr", "csr"))
	register(minifeSpec("minife.ell", "ell"))
}

// buildSpMVCSR builds the row-per-thread CSR kernel: variable-length rows
// give loop divergence; x[col] gathers give address divergence.
func buildSpMVCSR(name string) (*ptx.Func, error) {
	b := ptx.NewKernel(name)
	rowPtr := b.ParamU64("rowPtr")
	cols := b.ParamU64("cols")
	vals := b.ParamU64("vals")
	x := b.ParamU64("x")
	y := b.ParamU64("y")
	nrows := b.ParamU32("nrows")
	row := b.GlobalTidX()
	b.If(b.Setp(sass.CmpLT, row, nrows), func() {
		start := b.LdGlobalU32(b.Index(rowPtr, row, 2), 0)
		end := b.LdGlobalU32(b.Index(rowPtr, row, 2), 4)
		sum := b.Var(b.ImmF32(0))
		j := b.Var(start)
		b.While(func() ptx.Value { return b.Setp(sass.CmpLT, j, end) }, func() {
			col := b.LdGlobalU32(b.Index(cols, j, 2), 0)
			v := b.LdGlobalF32(b.Index(vals, j, 2), 0)
			xv := b.LdGlobalF32(b.Index(x, col, 2), 0)
			b.Assign(sum, b.Fma(v, xv, sum))
			b.Assign(j, b.AddI(j, 1))
		})
		b.StGlobalF32(b.Index(y, row, 2), 0, sum)
	})
	return b.Done()
}

// buildSpMVELL builds the ELL kernel: a uniform-trip-count loop over the
// padded column-major arrays, giving coalesced accesses and minimal
// divergence — the miniFE-ELL variant of Figures 7/8.
func buildSpMVELL(name string) (*ptx.Func, error) {
	b := ptx.NewKernel(name)
	cols := b.ParamU64("cols")
	vals := b.ParamU64("vals")
	x := b.ParamU64("x")
	y := b.ParamU64("y")
	nrows := b.ParamU32("nrows")
	perRow := b.ParamU32("perRow")
	row := b.GlobalTidX()
	b.If(b.Setp(sass.CmpLT, row, nrows), func() {
		sum := b.Var(b.ImmF32(0))
		k := b.Var(b.ImmU32(0))
		b.While(func() ptx.Value { return b.Setp(sass.CmpLT, k, perRow) }, func() {
			idx := b.Mad(k, nrows, row) // column-major: coalesced across the warp
			col := b.LdGlobalU32(b.Index(cols, idx, 2), 0)
			v := b.LdGlobalF32(b.Index(vals, idx, 2), 0)
			xv := b.LdGlobalF32(b.Index(x, col, 2), 0)
			b.Assign(sum, b.Fma(v, xv, sum))
			b.Assign(k, b.AddI(k, 1))
		})
		b.StGlobalF32(b.Index(y, row, 2), 0, sum)
	})
	return b.Done()
}

// spmvSpec is Parboil spmv on random CSR matrices with highly variable row
// lengths (small/medium/large).
func spmvSpec() *Spec {
	return &Spec{
		Name:      "parboil.spmv",
		OutputTol: 1e-3,
		Datasets:  []string{"small", "medium", "large"},
		Build: func() (*ptx.Module, error) {
			f, err := buildSpMVCSR("spmv_csr")
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			rows, nnz := 1024, 8
			switch dataset {
			case "medium":
				rows, nnz = 2048, 12
			case "large":
				rows, nnz = 4096, 16
			}
			mat := genSparseRandom(rows, nnz, 21)
			return runCSR(ctx, prog, "spmv_csr", mat, fmt.Sprintf("spmv %s rows=%d", dataset, rows))
		},
	}
}

// runCSR uploads a CSR matrix, runs the kernel, and verifies.
func runCSR(ctx *cuda.Context, prog *sass.Program, kernel string, mat *SparseMatrix, banner string) (*Result, error) {
	r := newRNG(31)
	x := r.f32s(mat.Rows, -1, 1)
	dRow := ctx.AllocU32("rowPtr", mat.RowPtr)
	dCol := ctx.AllocU32("cols", mat.Cols)
	dVal := ctx.AllocF32("vals", mat.Vals)
	dx := ctx.AllocF32("x", x)
	dy := ctx.Malloc(uint64(4 * mat.Rows))
	if _, err := ctx.LaunchKernel(prog, kernel, sim.LaunchParams{
		Grid: sim.D1((mat.Rows + 127) / 128), Block: sim.D1(128),
		Args: []uint64{uint64(dRow), uint64(dCol), uint64(dVal),
			uint64(dx), uint64(dy), uint64(mat.Rows)},
	}); err != nil {
		return nil, err
	}
	got, err := ctx.ReadF32(dy, mat.Rows)
	if err != nil {
		return nil, err
	}
	want := cpuSpMV(mat, x)
	res := &Result{Output: f32Bytes(got)}
	res.VerifyErr = compareF32(got, want, 1e-3, kernel)
	res.Stdout = fmt.Sprintf("%s %s\n", banner, f32Summary(res.Output))
	return res, nil
}

// minifeSpec is the miniFE conjugate-gradient SpMV step on a 27-point FEM
// matrix, in CSR or ELL format — the Figure 7/8 comparison pair.
func minifeSpec(name, format string) *Spec {
	return &Spec{
		Name:      name,
		Datasets:  []string{"default"},
		OutputTol: 1e-3,
		Build: func() (*ptx.Module, error) {
			m := ptx.NewModule()
			if format == "csr" {
				f, err := buildSpMVCSR("minife_csr")
				if err != nil {
					return nil, err
				}
				m.Add(f)
			} else {
				f, err := buildSpMVELL("minife_ell")
				if err != nil {
					return nil, err
				}
				m.Add(f)
			}
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			mat := genFEMatrix(12, 41) // 1728 rows, ~27 nnz each
			if format == "csr" {
				return runCSR(ctx, prog, "minife_csr", mat, "minife-csr")
			}
			ell := toELL(mat)
			r := newRNG(31)
			x := r.f32s(mat.Rows, -1, 1)
			dCol := ctx.AllocU32("ellCols", ell.Cols)
			dVal := ctx.AllocF32("ellVals", ell.Vals)
			dx := ctx.AllocF32("x", x)
			dy := ctx.Malloc(uint64(4 * mat.Rows))
			if _, err := ctx.LaunchKernel(prog, "minife_ell", sim.LaunchParams{
				Grid: sim.D1((mat.Rows + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dCol), uint64(dVal), uint64(dx), uint64(dy),
					uint64(mat.Rows), uint64(ell.PerRow)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dy, mat.Rows)
			if err != nil {
				return nil, err
			}
			want := cpuSpMV(mat, x)
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-3, "minife_ell")
			res.Stdout = fmt.Sprintf("minife-ell %s\n", f32Summary(res.Output))
			return res, nil
		},
	}
}
