package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() {
	register(sadSpec())
	register(lbmSpec())
	register(cutcpSpec())
	register(griddingSpec())
}

// sadSpec is Parboil sad: sums of absolute differences between a 4x4 block
// of the current frame and candidate positions in the reference frame —
// uniform loops, abs via signed max.
func sadSpec() *Spec {
	return &Spec{
		Name:     "parboil.sad",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("sad4x4")
			cur := b.ParamU64("cur")
			refF := b.ParamU64("ref")
			out := b.ParamU64("out")
			w := b.ParamU32("w")
			_ = b.ParamU32("nCand") // fixed at 16; kept in the signature for shape
			// One thread per (block, candidate): blockIdx = tid / nCand.
			t := b.GlobalTidX()
			// nCand is fixed at 16 and blocks-per-row at 16 (w=64), so the
			// index decomposition is all shifts and masks.
			blk := b.ShrI(t, 4)
			cand := b.AndI(t, 15)
			bx := b.AndI(blk, 15)
			by := b.ShrI(blk, 4)
			sum := b.Var(b.ImmU32(0))
			dy := b.Var(b.ImmU32(0))
			b.While(func() ptx.Value { return b.SetpI(sass.CmpLT, dy, 4) }, func() {
				dx := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.SetpI(sass.CmpLT, dx, 4) }, func() {
					y := b.Add(b.ShlI(by, 2), dy)
					x := b.Add(b.ShlI(bx, 2), dx)
					cIdx := b.Mad(y, w, x)
					rIdx := b.Add(cIdx, cand) // candidate: shifted right
					cv := b.AsS32(b.LdGlobalU32(b.Index(cur, cIdx, 2), 0))
					rv := b.AsS32(b.LdGlobalU32(b.Index(refF, rIdx, 2), 0))
					diff := b.Sub(cv, rv)
					neg := b.Sub(b.ImmS32(0), diff)
					ad := b.Max(diff, neg)
					b.Assign(sum, b.Add(sum, b.AsU32(ad)))
					b.Assign(dx, b.AddI(dx, 1))
				})
				b.Assign(dy, b.AddI(dy, 1))
			})
			b.StGlobalU32(b.Index(out, t, 2), 0, sum)
			f, err := b.Done()
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			const w, h, nCand = 64, 16, 16
			blocks := (w / 4) * (h / 4)
			n := blocks * nCand
			r := newRNG(241)
			cur := make([]uint32, w*(h+4))
			ref := make([]uint32, w*(h+4)+nCand)
			for i := range cur {
				cur[i] = uint32(r.intn(256))
			}
			for i := range ref {
				ref[i] = uint32(r.intn(256))
			}
			dCur := ctx.AllocU32("cur", cur)
			dRef := ctx.AllocU32("ref", ref)
			dOut := ctx.Malloc(uint64(4 * n))
			if _, err := ctx.LaunchKernel(prog, "sad4x4", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dCur), uint64(dRef), uint64(dOut),
					uint64(w), uint64(nCand)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dOut, n)
			if err != nil {
				return nil, err
			}
			want := make([]uint32, n)
			for t := 0; t < n; t++ {
				blk := t / nCand
				cand := t % nCand
				bx := blk % 16
				by := blk / 16
				var sum uint32
				for dy := 0; dy < 4; dy++ {
					for dx := 0; dx < 4; dx++ {
						y := by*4 + dy
						x := bx*4 + dx
						c := int32(cur[y*w+x])
						rv := int32(ref[y*w+x+cand])
						d := c - rv
						if d < 0 {
							d = -d
						}
						sum += uint32(d)
					}
				}
				want[t] = sum
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "sad")
			res.Stdout = fmt.Sprintf("sad blocks=%d checksum=%08x\n", blocks, checksum(res.Output))
			return res, nil
		},
	}
}

// lbmSpec is Parboil lbm reduced to a D2Q5 lattice-Boltzmann stream-collide
// step: heavy, perfectly regular global memory traffic.
func lbmSpec() *Spec {
	return &Spec{
		Name:      "parboil.lbm",
		OutputTol: 1e-3,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("lbm_step")
			src := b.ParamU64("src") // 5 distributions, planar layout f[d][y][x]
			dst := b.ParamU64("dst")
			w := b.ParamU32("w")
			h := b.ParamU32("h")
			omega := b.ParamF32("omega")
			x := b.GlobalTidX()
			y := b.CtaY()
			inside := b.PAnd(
				b.PAnd(b.SetpI(sass.CmpGT, x, 0), b.Setp(sass.CmpLT, b.AddI(x, 1), w)),
				b.PAnd(b.SetpI(sass.CmpGT, y, 0), b.Setp(sass.CmpLT, b.AddI(y, 1), h)))
			b.If(inside, func() {
				plane := b.Mul(w, h)
				idx := b.Mad(y, w, x)
				// Pull streaming: gather the 5 incoming distributions.
				f0 := b.LdGlobalF32(b.Index(src, idx, 2), 0)
				fE := b.LdGlobalF32(b.Index(src, b.Add(plane, b.SubI(idx, 1)), 2), 0)
				fW := b.LdGlobalF32(b.Index(src, b.Add(b.Mul(plane, b.ImmU32(2)), b.AddI(idx, 1)), 2), 0)
				fN := b.LdGlobalF32(b.Index(src, b.Add(b.Mul(plane, b.ImmU32(3)), b.Add(idx, w)), 2), 0)
				fS := b.LdGlobalF32(b.Index(src, b.Add(b.Mul(plane, b.ImmU32(4)), b.Sub(idx, w)), 2), 0)
				rho := b.Add(b.Add(f0, b.Add(fE, fW)), b.Add(fN, fS))
				feq := b.Mul(rho, b.ImmF32(0.2))
				relax := func(f ptx.Value) ptx.Value {
					return b.Fma(b.Sub(feq, f), omega, f)
				}
				b.StGlobalF32(b.Index(dst, idx, 2), 0, relax(f0))
				b.StGlobalF32(b.Index(dst, b.Add(plane, idx), 2), 0, relax(fE))
				b.StGlobalF32(b.Index(dst, b.Add(b.Mul(plane, b.ImmU32(2)), idx), 2), 0, relax(fW))
				b.StGlobalF32(b.Index(dst, b.Add(b.Mul(plane, b.ImmU32(3)), idx), 2), 0, relax(fN))
				b.StGlobalF32(b.Index(dst, b.Add(b.Mul(plane, b.ImmU32(4)), idx), 2), 0, relax(fS))
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
			const w, h = 64, 32
			omega := float32(0.6)
			r := newRNG(251)
			src := r.f32s(5*w*h, 0.1, 1)
			dSrc := ctx.AllocF32("src", src)
			dDst := ctx.AllocF32("dst", make([]float32, 5*w*h))
			if _, err := ctx.LaunchKernel(prog, "lbm_step", sim.LaunchParams{
				Grid: sim.Dim3{X: (w + 63) / 64, Y: h, Z: 1}, Block: sim.D1(64),
				Args: []uint64{uint64(dSrc), uint64(dDst),
					uint64(w), uint64(h), uint64(f32bitsOf(omega))},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dDst, 5*w*h)
			if err != nil {
				return nil, err
			}
			want := make([]float32, 5*w*h)
			plane := w * h
			for y := 1; y < h-1; y++ {
				for x := 1; x < w-1; x++ {
					idx := y*w + x
					f0 := src[idx]
					fE := src[plane+idx-1]
					fW := src[2*plane+idx+1]
					fN := src[3*plane+idx+w]
					fS := src[4*plane+idx-w]
					rho := (f0 + (fE + fW)) + (fN + fS)
					feq := rho * 0.2
					relax := func(f float32) float32 { return (feq-f)*omega + f }
					want[idx] = relax(f0)
					want[plane+idx] = relax(fE)
					want[2*plane+idx] = relax(fW)
					want[3*plane+idx] = relax(fN)
					want[4*plane+idx] = relax(fS)
				}
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-4, "lbm")
			res.Stdout = fmt.Sprintf("lbm %dx%d %s\n", w, h, f32Summary(res.Output))
			return res, nil
		},
	}
}

// cutcpSpec is Parboil cutcp: cutoff Coulomb potential — each grid point
// accumulates charge/distance over atoms within a cutoff radius; the
// cutoff test is a divergent branch in an otherwise uniform loop.
func cutcpSpec() *Spec {
	return &Spec{
		Name:      "parboil.cutcp",
		OutputTol: 2e-2,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("cutcp")
			atoms := b.ParamU64("atoms") // x,y,q triples
			grid := b.ParamU64("grid")
			w := b.ParamU32("w")
			nAtoms := b.ParamU32("nAtoms")
			cut2 := b.ParamF32("cut2")
			x := b.GlobalTidX()
			y := b.CtaY()
			b.If(b.Setp(sass.CmpLT, x, w), func() {
				gx := b.CvtF32(b.AsS32(x))
				gy := b.CvtF32(b.AsS32(y))
				pot := b.Var(b.ImmF32(0))
				a := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.Setp(sass.CmpLT, a, nAtoms) }, func() {
					base := b.Index(atoms, b.Mul(a, b.ImmU32(3)), 2)
					ax := b.LdGlobalF32(base, 0)
					ay := b.LdGlobalF32(base, 4)
					q := b.LdGlobalF32(base, 8)
					dx := b.Sub(gx, ax)
					dy := b.Sub(gy, ay)
					r2 := b.Fma(dx, dx, b.Mul(dy, dy))
					b.If(b.Setp(sass.CmpLT, r2, cut2), func() {
						b.Assign(pot, b.Add(pot, b.Mul(q, b.Rsq(b.Add(r2, b.ImmF32(0.01))))))
					})
					b.Assign(a, b.AddI(a, 1))
				})
				b.StGlobalF32(b.Index(grid, b.Mad(y, w, x), 2), 0, pot)
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
			const w, h, nAtoms = 64, 16, 64
			cut2 := float32(64)
			r := newRNG(261)
			atoms := make([]float32, 3*nAtoms)
			for i := 0; i < nAtoms; i++ {
				atoms[3*i] = r.f32() * w
				atoms[3*i+1] = r.f32() * h
				atoms[3*i+2] = r.f32()*2 - 1
			}
			dAtoms := ctx.AllocF32("atoms", atoms)
			dGrid := ctx.Malloc(4 * w * h)
			if _, err := ctx.LaunchKernel(prog, "cutcp", sim.LaunchParams{
				Grid: sim.Dim3{X: (w + 63) / 64, Y: h, Z: 1}, Block: sim.D1(64),
				Args: []uint64{uint64(dAtoms), uint64(dGrid),
					uint64(w), uint64(nAtoms), uint64(f32bitsOf(cut2))},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dGrid, w*h)
			if err != nil {
				return nil, err
			}
			want := make([]float32, w*h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					var pot float32
					for i := 0; i < nAtoms; i++ {
						dx := float32(x) - atoms[3*i]
						dy := float32(y) - atoms[3*i+1]
						r2 := dx*dx + dy*dy
						if r2 < cut2 {
							pot += atoms[3*i+2] * invSqrt32(r2+0.01)
						}
					}
					want[y*w+x] = pot
				}
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 2e-2, "cutcp")
			res.Stdout = fmt.Sprintf("cutcp %dx%d atoms=%d %s\n", w, h, nAtoms, f32Summary(res.Output))
			return res, nil
		},
	}
}

// griddingSpec approximates Parboil mri-gridding: scatter irregular sample
// points onto a regular grid with atomics — the address-divergence heavy
// pattern of Figure 7's mri-gridding bar.
func griddingSpec() *Spec {
	return &Spec{
		Name:     "parboil.mri-gridding",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("gridding")
			sx := b.ParamU64("sx")
			sy := b.ParamU64("sy")
			grid := b.ParamU64("grid") // fixed-point accumulation (x1024)
			w := b.ParamU32("w")
			h := b.ParamU32("h")
			n := b.ParamU32("n")
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				x := b.LdGlobalF32(b.Index(sx, i, 2), 0)
				y := b.LdGlobalF32(b.Index(sy, i, 2), 0)
				// Nearest-cell scatter into the 3x3 neighborhood.
				cx := b.CvtS32(x)
				cy := b.CvtS32(y)
				dy := b.Var(b.ImmS32(-1))
				b.While(func() ptx.Value { return b.SetpI(sass.CmpLE, dy, 1) }, func() {
					dx := b.Var(b.ImmS32(-1))
					b.While(func() ptx.Value { return b.SetpI(sass.CmpLE, dx, 1) }, func() {
						px := b.Add(cx, dx)
						py := b.Add(cy, dy)
						ok := b.PAnd(
							b.PAnd(b.SetpI(sass.CmpGE, px, 0), b.Setp(sass.CmpLT, px, b.AsS32(w))),
							b.PAnd(b.SetpI(sass.CmpGE, py, 0), b.Setp(sass.CmpLT, py, b.AsS32(h))))
						b.If(ok, func() {
							idx := b.Mad(b.AsU32(py), w, b.AsU32(px))
							b.AtomAddGlobal(b.Index(grid, idx, 2), 0, b.ImmU32(1))
						})
						b.Assign(dx, b.AddI(dx, 1))
					})
					b.Assign(dy, b.AddI(dy, 1))
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
			const w, h, n = 64, 64, 2048
			r := newRNG(271)
			sx := make([]float32, n)
			sy := make([]float32, n)
			for i := 0; i < n; i++ {
				// Radial sample distribution (dense center), like k-space
				// spiral trajectories.
				sx[i] = float32(w)/2 + (r.f32()-0.5)*(r.f32())*float32(w)
				sy[i] = float32(h)/2 + (r.f32()-0.5)*(r.f32())*float32(h)
			}
			dX := ctx.AllocF32("sx", sx)
			dY := ctx.AllocF32("sy", sy)
			dGrid := ctx.AllocU32("grid", make([]uint32, w*h))
			if _, err := ctx.LaunchKernel(prog, "gridding", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dX), uint64(dY), uint64(dGrid),
					uint64(w), uint64(h), uint64(n)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dGrid, w*h)
			if err != nil {
				return nil, err
			}
			want := make([]uint32, w*h)
			for i := 0; i < n; i++ {
				cx := int(int32(sx[i]))
				cy := int(int32(sy[i]))
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						px, py := cx+dx, cy+dy
						if px >= 0 && px < w && py >= 0 && py < h {
							want[py*w+px]++
						}
					}
				}
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "gridding")
			res.Stdout = fmt.Sprintf("mri-gridding n=%d checksum=%08x\n", n, checksum(res.Output))
			return res, nil
		},
	}
}

// invSqrt32 mirrors the kernel's Rsq in the CPU reference.
func invSqrt32(x float32) float32 {
	return float32(1 / sqrt64(float64(x)))
}
