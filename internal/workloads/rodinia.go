package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() {
	register(gaussianSpec())
	register(streamclusterSpec())
	register(sradSpec("rodinia.srad_v1", 1))
	register(sradSpec("rodinia.srad_v2", 2))
	register(heartwallSpec())
}

// gaussianSpec is Rodinia gaussian: forward elimination with one Fan1/Fan2
// kernel pair per pivot — many tiny launches (the paper reports 2052) and
// mild divergence from the i>t guards.
func gaussianSpec() *Spec {
	return &Spec{
		Name:      "rodinia.gaussian",
		OutputTol: 5e-2,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			m := ptx.NewModule()

			// Fan1: m[i] = a[i*ncols+t] / a[t*ncols+t] for i in (t, n).
			b := ptx.NewKernel("fan1")
			a := b.ParamU64("a")
			mul := b.ParamU64("m")
			n := b.ParamU32("n")
			ncols1 := b.ParamU32("ncols")
			t := b.ParamU32("t")
			i := b.Add(b.GlobalTidX(), b.AddI(t, 1))
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				num := b.LdGlobalF32(b.Index(a, b.Mad(i, ncols1, t), 2), 0)
				den := b.LdGlobalF32(b.Index(a, b.Mad(t, ncols1, t), 2), 0)
				b.StGlobalF32(b.Index(mul, i, 2), 0, b.Mul(num, b.Rcp(den)))
			})
			f1, err := b.Done()
			if err != nil {
				return nil, err
			}
			m.Add(f1)

			// Fan2: a[i*n+j] -= m[i]*a[t*n+j]; also updates b-vector as
			// column n (augmented matrix).
			b2 := ptx.NewKernel("fan2")
			a2 := b2.ParamU64("a")
			mul2 := b2.ParamU64("m")
			n2 := b2.ParamU32("n")
			ncols := b2.ParamU32("ncols")
			t2 := b2.ParamU32("t")
			i2 := b2.Add(b2.GlobalTidX(), b2.AddI(t2, 1))
			j2 := b2.CtaY() // blocks are 1 column high in y
			inI := b2.Setp(sass.CmpLT, i2, n2)
			inJ := b2.Setp(sass.CmpLT, j2, ncols)
			b2.If(b2.PAnd(inI, inJ), func() {
				mi := b2.LdGlobalF32(b2.Index(mul2, i2, 2), 0)
				atj := b2.LdGlobalF32(b2.Index(a2, b2.Mad(t2, ncols, j2), 2), 0)
				idx := b2.Mad(i2, ncols, j2)
				aij := b2.LdGlobalF32(b2.Index(a2, idx, 2), 0)
				b2.StGlobalF32(b2.Index(a2, idx, 2), 0, b2.Sub(aij, b2.Mul(mi, atj)))
			})
			f2, err := b2.Done()
			if err != nil {
				return nil, err
			}
			m.Add(f2)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			const n = 24
			ncols := uint32(n + 1)
			r := newRNG(91)
			// Diagonally dominant augmented matrix [A|b].
			aug := make([]float32, n*int(ncols))
			for i := 0; i < n; i++ {
				for j := 0; j <= n; j++ {
					aug[i*int(ncols)+j] = r.f32() - 0.5
				}
				aug[i*int(ncols)+i] = float32(n)
			}
			ref := make([]float32, len(aug))
			copy(ref, aug)

			dA := ctx.AllocF32("aug", aug)
			dM := ctx.Malloc(4 * n)
			for t := 0; t < n-1; t++ {
				rows := n - t - 1
				if _, err := ctx.LaunchKernel(prog, "fan1", sim.LaunchParams{
					Grid: sim.D1((rows + 63) / 64), Block: sim.D1(64),
					Args: []uint64{uint64(dA), uint64(dM), uint64(n), uint64(ncols), uint64(t)},
				}); err != nil {
					return nil, err
				}
				if _, err := ctx.LaunchKernel(prog, "fan2", sim.LaunchParams{
					Grid: sim.Dim3{X: (rows + 63) / 64, Y: int(ncols), Z: 1}, Block: sim.D1(64),
					Args: []uint64{uint64(dA), uint64(dM), uint64(n), uint64(ncols), uint64(t)},
				}); err != nil {
					return nil, err
				}
			}
			got, err := ctx.ReadF32(dA, len(aug))
			if err != nil {
				return nil, err
			}
			// CPU forward elimination mirroring the kernel arithmetic
			// (rcp-based division).
			for t := 0; t < n-1; t++ {
				den := ref[t*int(ncols)+t]
				for i := t + 1; i < n; i++ {
					mi := ref[i*int(ncols)+t] * (1 / den)
					for j := 0; j < int(ncols); j++ {
						ref[i*int(ncols)+j] -= mi * ref[t*int(ncols)+j]
					}
				}
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, ref, 5e-2, "gaussian")
			res.Stdout = fmt.Sprintf("gaussian n=%d launches=%d %s\n",
				n, ctx.Launches(), f32Summary(res.Output))
			return res, nil
		},
	}
}

// streamclusterSpec is Rodinia streamcluster's distance phase: for each
// point, compute the cost to every candidate center and keep the minimum.
// Branch-free inner loop (Sel-based min) — fully convergent, matching the
// paper's 0% divergence row.
func streamclusterSpec() *Spec {
	return &Spec{
		Name:     "rodinia.streamcluster",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("sc_dist")
			pts := b.ParamU64("pts") // n x dim
			ctrs := b.ParamU64("ctrs")
			assign := b.ParamU64("assign")
			mind := b.ParamU64("mind")
			n := b.ParamU32("n")
			k := b.ParamU32("k")
			dim := b.ParamU32("dim")
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				best := b.Var(b.ImmF32(1e30))
				bestK := b.Var(b.ImmU32(0))
				c := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.Setp(sass.CmpLT, c, k) }, func() {
					sum := b.Var(b.ImmF32(0))
					d := b.Var(b.ImmU32(0))
					b.While(func() ptx.Value { return b.Setp(sass.CmpLT, d, dim) }, func() {
						pv := b.LdGlobalF32(b.Index(pts, b.Mad(i, dim, d), 2), 0)
						cv := b.LdGlobalF32(b.Index(ctrs, b.Mad(c, dim, d), 2), 0)
						diff := b.Sub(pv, cv)
						b.Assign(sum, b.Fma(diff, diff, sum))
						b.Assign(d, b.AddI(d, 1))
					})
					isBetter := b.Setp(sass.CmpLT, sum, best)
					b.Assign(best, b.Sel(isBetter, sum, best))
					b.Assign(bestK, b.Sel(isBetter, c, bestK))
					b.Assign(c, b.AddI(c, 1))
				})
				b.StGlobalU32(b.Index(assign, i, 2), 0, bestK)
				b.StGlobalF32(b.Index(mind, i, 2), 0, best)
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
			const n, k, dim = 768, 8, 8
			r := newRNG(111)
			pts := r.f32s(n*dim, 0, 1)
			ctrs := r.f32s(k*dim, 0, 1)
			dPts := ctx.AllocF32("pts", pts)
			dCtr := ctx.AllocF32("ctrs", ctrs)
			dAsn := ctx.Malloc(4 * n)
			dMin := ctx.Malloc(4 * n)
			if _, err := ctx.LaunchKernel(prog, "sc_dist", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dPts), uint64(dCtr), uint64(dAsn), uint64(dMin),
					uint64(n), uint64(k), uint64(dim)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dAsn, n)
			if err != nil {
				return nil, err
			}
			want := make([]uint32, n)
			for i := 0; i < n; i++ {
				best := float32(1e30)
				for c := 0; c < k; c++ {
					var sum float32
					for d := 0; d < dim; d++ {
						diff := pts[i*dim+d] - ctrs[c*dim+d]
						sum = diff*diff + sum
					}
					if sum < best {
						best = sum
						want[i] = uint32(c)
					}
				}
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "streamcluster assign")
			res.Stdout = fmt.Sprintf("streamcluster n=%d k=%d checksum=%08x\n", n, k, checksum(res.Output))
			return res, nil
		},
	}
}

// sradSpec is Rodinia srad: anisotropic diffusion on an image. Variant 1
// clamps boundary neighbors with Sel (almost no divergence); variant 2
// handles boundaries with nested Ifs (divergent at every image edge) —
// reproducing the paper's srad_v1 vs srad_v2 contrast.
func sradSpec(name string, variant int) *Spec {
	return &Spec{
		Name:      name,
		Datasets:  []string{"small"},
		OutputTol: 1e-3,
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("srad")
			img := b.ParamU64("img")
			out := b.ParamU64("out")
			w := b.ParamU32("w")
			h := b.ParamU32("h")
			lam := b.ParamF32("lambda")
			x := b.GlobalTidX()
			y := b.CtaY()
			inRange := b.PAnd(b.Setp(sass.CmpLT, x, w), b.Setp(sass.CmpLT, y, h))
			b.If(inRange, func() {
				idx := b.Mad(y, w, x)
				c := b.LdGlobalF32(b.Index(img, idx, 2), 0)
				var nv, sv, wv, ev ptx.Value
				if variant == 1 {
					// Clamped neighbor indices, branch-free.
					ym1 := b.Sel(b.SetpI(sass.CmpGT, y, 0), b.SubI(y, 1), y)
					yp1 := b.Sel(b.Setp(sass.CmpLT, b.AddI(y, 1), h), b.AddI(y, 1), y)
					xm1 := b.Sel(b.SetpI(sass.CmpGT, x, 0), b.SubI(x, 1), x)
					xp1 := b.Sel(b.Setp(sass.CmpLT, b.AddI(x, 1), w), b.AddI(x, 1), x)
					nv = b.LdGlobalF32(b.Index(img, b.Mad(ym1, w, x), 2), 0)
					sv = b.LdGlobalF32(b.Index(img, b.Mad(yp1, w, x), 2), 0)
					wv = b.LdGlobalF32(b.Index(img, b.Mad(y, w, xm1), 2), 0)
					ev = b.LdGlobalF32(b.Index(img, b.Mad(y, w, xp1), 2), 0)
				} else {
					// Divergent boundary handling: each branch body
					// recomputes the neighbor's 2-D index from scratch, as
					// the naive implementation does — large enough that the
					// backend keeps the branches instead of predicating
					// them, reproducing the paper's srad_v2 divergence.
					nvv := b.Var(c)
					svv := b.Var(c)
					wvv := b.Var(c)
					evv := b.Var(c)
					b.If(b.SetpI(sass.CmpGT, y, 0), func() {
						b.Assign(nvv, b.LdGlobalF32(b.Index(img, b.Mad(b.SubI(y, 1), w, x), 2), 0))
					})
					b.If(b.Setp(sass.CmpLT, b.AddI(y, 1), h), func() {
						b.Assign(svv, b.LdGlobalF32(b.Index(img, b.Mad(b.AddI(y, 1), w, x), 2), 0))
					})
					b.If(b.SetpI(sass.CmpGT, x, 0), func() {
						b.Assign(wvv, b.LdGlobalF32(b.Index(img, b.Mad(y, w, b.SubI(x, 1)), 2), 0))
					})
					b.If(b.Setp(sass.CmpLT, b.AddI(x, 1), w), func() {
						b.Assign(evv, b.LdGlobalF32(b.Index(img, b.Mad(y, w, b.AddI(x, 1)), 2), 0))
					})
					nv, sv, wv, ev = nvv, svv, wvv, evv
				}
				// Diffusion update: c + lambda/4 * laplacian.
				lap := b.Sub(b.Add(b.Add(nv, sv), b.Add(wv, ev)), b.Mul(c, b.ImmF32(4)))
				b.StGlobalF32(b.Index(out, idx, 2), 0, b.Fma(lap, b.Mul(lam, b.ImmF32(0.25)), c))
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
			const w, h = 64, 48
			lam := float32(0.5)
			r := newRNG(121)
			img := r.f32s(w*h, 0, 1)
			dImg := ctx.AllocF32("img", img)
			dOut := ctx.Malloc(4 * w * h)
			if _, err := ctx.LaunchKernel(prog, "srad", sim.LaunchParams{
				Grid: sim.Dim3{X: (w + 63) / 64, Y: h, Z: 1}, Block: sim.D1(64),
				Args: []uint64{uint64(dImg), uint64(dOut), uint64(w), uint64(h),
					uint64(f32bitsOf(lam))},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dOut, w*h)
			if err != nil {
				return nil, err
			}
			want := make([]float32, w*h)
			at := func(x, y int) float32 {
				if x < 0 {
					x = 0
				}
				if x >= w {
					x = w - 1
				}
				if y < 0 {
					y = 0
				}
				if y >= h {
					y = h - 1
				}
				return img[y*w+x]
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					c := img[y*w+x]
					lap := (at(x, y-1) + at(x, y+1)) + (at(x-1, y) + at(x+1, y)) - c*4
					want[y*w+x] = lap*(lam*0.25) + c
				}
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-4, "srad")
			res.Stdout = fmt.Sprintf("srad v%d %dx%d %s\n", variant, w, h, f32Summary(res.Output))
			return res, nil
		},
	}
}

// heartwallSpec approximates Rodinia heartwall's tracking loop: per-thread
// work lists of widely varying length with data-dependent inner branches —
// the most divergent code in the paper's Table 1.
func heartwallSpec() *Spec {
	return &Spec{
		Name:      "rodinia.heartwall",
		OutputTol: 1e-3,
		Datasets:  []string{"small", "medium"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("heartwall")
			work := b.ParamU64("work") // per-thread iteration counts
			data := b.ParamU64("data")
			out := b.ParamU64("out")
			n := b.ParamU32("n")
			dlen := b.ParamU32("dlen")
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				iters := b.LdGlobalU32(b.Index(work, i, 2), 0)
				acc := b.Var(b.ImmF32(0))
				j := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.Setp(sass.CmpLT, j, iters) }, func() {
					// Gather a data-dependent sample.
					h := b.AndI(b.Mad(j, b.ImmU32(2654435761), i), 0x7fffffff)
					idx := b.Var(h)
					// idx %= dlen via repeated conditional subtract is too
					// slow; use masked index assuming dlen is a power of 2.
					b.Assign(idx, b.And(idx, b.SubI(dlen, 1)))
					v := b.LdGlobalF32(b.Index(data, idx, 2), 0)
					// Data-dependent branch inside the divergent loop.
					b.IfElse(b.Setp(sass.CmpGT, v, b.ImmF32(0.5)), func() {
						b.Assign(acc, b.Fma(v, v, acc))
					}, func() {
						b.Assign(acc, b.Add(acc, v))
					})
					b.Assign(j, b.AddI(j, 1))
				})
				b.StGlobalF32(b.Index(out, i, 2), 0, acc)
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
			const dlen = 1024
			n := 1024
			if dataset == "medium" {
				n = 2048
			}
			r := newRNG(131)
			work := make([]uint32, n)
			for i := range work {
				// Long-tailed distribution: most threads do little, a few
				// do a lot — maximal intra-warp imbalance.
				v := r.intn(64)
				work[i] = uint32(v * v / 64)
			}
			data := r.f32s(dlen, 0, 1)
			dWork := ctx.AllocU32("work", work)
			dData := ctx.AllocF32("data", data)
			dOut := ctx.Malloc(uint64(4 * n))
			if _, err := ctx.LaunchKernel(prog, "heartwall", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dWork), uint64(dData), uint64(dOut),
					uint64(n), uint64(dlen)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dOut, n)
			if err != nil {
				return nil, err
			}
			want := make([]float32, n)
			for i := 0; i < n; i++ {
				var acc float32
				for j := uint32(0); j < work[i]; j++ {
					h := (j*2654435761 + uint32(i)) & 0x7fffffff
					v := data[h&(dlen-1)]
					if v > 0.5 {
						acc = v*v + acc
					} else {
						acc += v
					}
				}
				want[i] = acc
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-4, "heartwall")
			res.Stdout = fmt.Sprintf("heartwall n=%d %s\n", n, f32Summary(res.Output))
			return res, nil
		},
	}
}
