package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() {
	register(stencilSpec())
	register(histoSpec())
	register(mriqSpec())
}

// stencilSpec is Parboil stencil: a 7-point 3D Jacobi sweep. One thread per
// (x, y) column marches in z; interior-only guard gives near-uniform
// control flow and unit-stride coalesced accesses.
func stencilSpec() *Spec {
	return &Spec{
		Name:      "parboil.stencil",
		OutputTol: 1e-3,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("stencil")
			in := b.ParamU64("in")
			out := b.ParamU64("out")
			nx := b.ParamU32("nx")
			ny := b.ParamU32("ny")
			nz := b.ParamU32("nz")
			c0 := b.ParamF32("c0")
			c1 := b.ParamF32("c1")

			x := b.GlobalTidX()
			y := b.CtaY() // blocks are 1 row high: y is the block row
			inX := b.PAnd(b.SetpI(sass.CmpGT, x, 0), b.Setp(sass.CmpLT, b.AddI(x, 1), nx))
			inY := b.PAnd(b.SetpI(sass.CmpGT, y, 0), b.Setp(sass.CmpLT, b.AddI(y, 1), ny))
			b.If(b.PAnd(inX, inY), func() {
				plane := b.Mul(nx, ny)
				rowBase := b.Mad(y, nx, x)
				z := b.Var(b.ImmU32(1))
				b.While(func() ptx.Value {
					return b.Setp(sass.CmpLT, b.AddI(z, 1), nz)
				}, func() {
					idx := b.Mad(z, plane, rowBase)
					center := b.LdGlobalF32(b.Index(in, idx, 2), 0)
					west := b.LdGlobalF32(b.Index(in, b.SubI(idx, 1), 2), 0)
					east := b.LdGlobalF32(b.Index(in, b.AddI(idx, 1), 2), 0)
					north := b.LdGlobalF32(b.Index(in, b.Sub(idx, nx), 2), 0)
					south := b.LdGlobalF32(b.Index(in, b.Add(idx, nx), 2), 0)
					below := b.LdGlobalF32(b.Index(in, b.Sub(idx, plane), 2), 0)
					above := b.LdGlobalF32(b.Index(in, b.Add(idx, plane), 2), 0)
					sum := b.Add(b.Add(b.Add(west, east), b.Add(north, south)), b.Add(below, above))
					b.StGlobalF32(b.Index(out, idx, 2), 0, b.Fma(sum, c1, b.Mul(center, c0)))
					b.Assign(z, b.AddI(z, 1))
				})
			})
			f, err := b.Done()
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			nx, ny, nz := 32, 16, 12
			r := newRNG(61)
			in := r.f32s(nx*ny*nz, 0, 1)
			c0, c1 := float32(0.5), float32(1.0/12.0)
			dIn := ctx.AllocF32("in", in)
			out := make([]float32, len(in))
			copy(out, in)
			dOut := ctx.AllocF32("out", out)
			if _, err := ctx.LaunchKernel(prog, "stencil", sim.LaunchParams{
				Grid: sim.Dim3{X: (nx + 63) / 64, Y: ny, Z: 1}, Block: sim.D1(64),
				Args: []uint64{uint64(dIn), uint64(dOut),
					uint64(nx), uint64(ny), uint64(nz),
					uint64(f32ArgBits(c0)), uint64(f32ArgBits(c1))},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dOut, len(in))
			if err != nil {
				return nil, err
			}
			want := make([]float32, len(in))
			copy(want, in)
			idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
			for z := 1; z < nz-1; z++ {
				for y := 1; y < ny-1; y++ {
					for x := 1; x < nx-1; x++ {
						sum := (in[idx(x-1, y, z)] + in[idx(x+1, y, z)]) +
							(in[idx(x, y-1, z)] + in[idx(x, y+1, z)]) +
							(in[idx(x, y, z-1)] + in[idx(x, y, z+1)])
						want[idx(x, y, z)] = sum*c1 + in[idx(x, y, z)]*c0
					}
				}
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-4, "stencil")
			res.Stdout = fmt.Sprintf("stencil %dx%dx%d %s\n", nx, ny, nz, f32Summary(res.Output))
			return res, nil
		},
	}
}

// f32ArgBits packs a float kernel argument.
func f32ArgBits(f float32) uint32 {
	return f32bitsOf(f)
}

// histoSpec is Parboil histo: data-dependent global atomics with heavy
// contention on popular bins.
func histoSpec() *Spec {
	return &Spec{
		Name:     "parboil.histo",
		Datasets: []string{"small", "large"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("histo")
			data := b.ParamU64("data")
			hist := b.ParamU64("hist")
			n := b.ParamU32("n")
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				v := b.LdGlobalU32(b.Index(data, i, 2), 0)
				b.AtomAddGlobal(b.Index(hist, v, 2), 0, b.ImmU32(1))
			})
			f, err := b.Done()
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			const bins = 256
			n := 4096
			if dataset == "large" {
				n = 16384
			}
			r := newRNG(71)
			data := make([]uint32, n)
			for i := range data {
				// Skewed distribution: squaring biases toward low bins,
				// like histo's image inputs.
				v := r.intn(bins)
				data[i] = uint32(v * v / bins)
			}
			dData := ctx.AllocU32("data", data)
			dHist := ctx.AllocU32("hist", make([]uint32, bins))
			if _, err := ctx.LaunchKernel(prog, "histo", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dData), uint64(dHist), uint64(n)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dHist, bins)
			if err != nil {
				return nil, err
			}
			want := make([]uint32, bins)
			for _, v := range data {
				want[v]++
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "histo")
			res.Stdout = fmt.Sprintf("histo n=%d checksum=%08x\n", n, checksum(res.Output))
			return res, nil
		},
	}
}

// mriqSpec is Parboil mri-q's Q computation: per-sample trigonometric
// accumulation. Fully convergent, MUFU (sin/cos) heavy — the shape that
// makes its value profile distinctive in Table 2.
func mriqSpec() *Spec {
	return &Spec{
		Name:      "parboil.mri-q",
		OutputTol: 2e-2,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("mriq")
			kx := b.ParamU64("kx")
			ky := b.ParamU64("ky")
			phi := b.ParamU64("phi")
			x := b.ParamU64("x")
			y := b.ParamU64("y")
			qr := b.ParamU64("qr")
			qi := b.ParamU64("qi")
			n := b.ParamU32("n") // output points
			k := b.ParamU32("k") // samples
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				xi := b.LdGlobalF32(b.Index(x, i, 2), 0)
				yi := b.LdGlobalF32(b.Index(y, i, 2), 0)
				sumR := b.Var(b.ImmF32(0))
				sumI := b.Var(b.ImmF32(0))
				j := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.Setp(sass.CmpLT, j, k) }, func() {
					kxv := b.LdGlobalF32(b.Index(kx, j, 2), 0)
					kyv := b.LdGlobalF32(b.Index(ky, j, 2), 0)
					ph := b.LdGlobalF32(b.Index(phi, j, 2), 0)
					arg := b.Fma(kxv, xi, b.Mul(kyv, yi))
					b.Assign(sumR, b.Fma(ph, b.Cos(arg), sumR))
					b.Assign(sumI, b.Fma(ph, b.Sin(arg), sumI))
					b.Assign(j, b.AddI(j, 1))
				})
				b.StGlobalF32(b.Index(qr, i, 2), 0, sumR)
				b.StGlobalF32(b.Index(qi, i, 2), 0, sumI)
			})
			f, err := b.Done()
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			const n, k = 512, 64
			r := newRNG(81)
			kx := r.f32s(k, -1, 1)
			ky := r.f32s(k, -1, 1)
			phi := r.f32s(k, 0, 1)
			x := r.f32s(n, -3, 3)
			y := r.f32s(n, -3, 3)
			dkx := ctx.AllocF32("kx", kx)
			dky := ctx.AllocF32("ky", ky)
			dphi := ctx.AllocF32("phi", phi)
			dx := ctx.AllocF32("x", x)
			dy := ctx.AllocF32("y", y)
			dqr := ctx.Malloc(4 * n)
			dqi := ctx.Malloc(4 * n)
			if _, err := ctx.LaunchKernel(prog, "mriq", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dkx), uint64(dky), uint64(dphi),
					uint64(dx), uint64(dy), uint64(dqr), uint64(dqi),
					uint64(n), uint64(k)},
			}); err != nil {
				return nil, err
			}
			gotR, err := ctx.ReadF32(dqr, n)
			if err != nil {
				return nil, err
			}
			gotI, err := ctx.ReadF32(dqi, n)
			if err != nil {
				return nil, err
			}
			wantR := make([]float32, n)
			wantI := make([]float32, n)
			for i := 0; i < n; i++ {
				var sr, si float64
				for j := 0; j < k; j++ {
					arg := float64(kx[j])*float64(x[i]) + float64(ky[j])*float64(y[i])
					sr += float64(phi[j]) * cos64(arg)
					si += float64(phi[j]) * sin64(arg)
				}
				wantR[i] = float32(sr)
				wantI[i] = float32(si)
			}
			res := &Result{Output: append(f32Bytes(gotR), f32Bytes(gotI)...)}
			err1 := compareF32(gotR, wantR, 2e-2, "mriq Qr")
			err2 := compareF32(gotI, wantI, 2e-2, "mriq Qi")
			if err1 != nil {
				res.VerifyErr = err1
			} else {
				res.VerifyErr = err2
			}
			res.Stdout = fmt.Sprintf("mri-q n=%d k=%d %s\n", n, k, f32Summary(res.Output))
			return res, nil
		},
	}
}
