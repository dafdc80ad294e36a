package workloads

import (
	"fmt"
	"math"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() {
	register(hotspotSpec())
	register(pathfinderSpec())
	register(kmeansSpec())
	register(nnSpec())
	register(backpropSpec())
}

// hotspotSpec is Rodinia hotspot: the thermal update
// T' = T + cap*(neighbors - 4T + power), boundary-clamped, iterated twice
// with buffer swapping.
func hotspotSpec() *Spec {
	return &Spec{
		Name:      "rodinia.hotspot",
		OutputTol: 1e-2,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("hotspot")
			temp := b.ParamU64("temp")
			power := b.ParamU64("power")
			out := b.ParamU64("out")
			w := b.ParamU32("w")
			h := b.ParamU32("h")
			cap := b.ParamF32("cap")
			x := b.GlobalTidX()
			y := b.CtaY()
			b.If(b.PAnd(b.Setp(sass.CmpLT, x, w), b.Setp(sass.CmpLT, y, h)), func() {
				idx := b.Mad(y, w, x)
				t := b.LdGlobalF32(b.Index(temp, idx, 2), 0)
				ym1 := b.Sel(b.SetpI(sass.CmpGT, y, 0), b.SubI(y, 1), y)
				yp1 := b.Sel(b.Setp(sass.CmpLT, b.AddI(y, 1), h), b.AddI(y, 1), y)
				xm1 := b.Sel(b.SetpI(sass.CmpGT, x, 0), b.SubI(x, 1), x)
				xp1 := b.Sel(b.Setp(sass.CmpLT, b.AddI(x, 1), w), b.AddI(x, 1), x)
				n := b.LdGlobalF32(b.Index(temp, b.Mad(ym1, w, x), 2), 0)
				s := b.LdGlobalF32(b.Index(temp, b.Mad(yp1, w, x), 2), 0)
				wv := b.LdGlobalF32(b.Index(temp, b.Mad(y, w, xm1), 2), 0)
				e := b.LdGlobalF32(b.Index(temp, b.Mad(y, w, xp1), 2), 0)
				p := b.LdGlobalF32(b.Index(power, idx, 2), 0)
				delta := b.Add(b.Sub(b.Add(b.Add(n, s), b.Add(wv, e)), b.Mul(t, b.ImmF32(4))), p)
				b.StGlobalF32(b.Index(out, idx, 2), 0, b.Fma(delta, cap, t))
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
			const w, h, steps = 64, 32, 2
			capv := float32(0.05)
			r := newRNG(141)
			temp := r.f32s(w*h, 320, 340)
			power := r.f32s(w*h, 0, 1)
			bufs := [2]cuda.DevPtr{ctx.AllocF32("tempA", temp), ctx.Malloc(4 * w * h)}
			dPow := ctx.AllocF32("power", power)
			for s := 0; s < steps; s++ {
				if _, err := ctx.LaunchKernel(prog, "hotspot", sim.LaunchParams{
					Grid: sim.Dim3{X: (w + 63) / 64, Y: h, Z: 1}, Block: sim.D1(64),
					Args: []uint64{uint64(bufs[s%2]), uint64(dPow), uint64(bufs[(s+1)%2]),
						uint64(w), uint64(h), uint64(f32bitsOf(capv))},
				}); err != nil {
					return nil, err
				}
			}
			got, err := ctx.ReadF32(bufs[steps%2], w*h)
			if err != nil {
				return nil, err
			}
			ref := make([]float32, w*h)
			nxt := make([]float32, w*h)
			copy(ref, temp)
			clamp := func(v, lo, hi int) int {
				if v < lo {
					return lo
				}
				if v > hi {
					return hi
				}
				return v
			}
			for s := 0; s < steps; s++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						t := ref[y*w+x]
						n := ref[clamp(y-1, 0, h-1)*w+x]
						ss := ref[clamp(y+1, 0, h-1)*w+x]
						wv := ref[y*w+clamp(x-1, 0, w-1)]
						e := ref[y*w+clamp(x+1, 0, w-1)]
						delta := (n + ss) + (wv + e) - t*4 + power[y*w+x]
						nxt[y*w+x] = delta*capv + t
					}
				}
				ref, nxt = nxt, ref
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, ref, 1e-3, "hotspot")
			res.Stdout = fmt.Sprintf("hotspot %dx%d steps=%d %s\n", w, h, steps, f32Summary(res.Output))
			return res, nil
		},
	}
}

// pathfinderSpec is Rodinia pathfinder: dynamic programming over grid rows,
// next[i] = data[i] + min(prev[i-1], prev[i], prev[i+1]).
func pathfinderSpec() *Spec {
	return &Spec{
		Name:     "rodinia.pathfinder",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("pathfinder")
			prev := b.ParamU64("prev")
			data := b.ParamU64("data")
			next := b.ParamU64("next")
			n := b.ParamU32("n")
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				c := b.LdGlobalU32(b.Index(prev, i, 2), 0)
				left := b.Var(c)
				right := b.Var(c)
				b.If(b.SetpI(sass.CmpGT, i, 0), func() {
					b.Assign(left, b.LdGlobalU32(b.Index(prev, b.SubI(i, 1), 2), 0))
				})
				b.If(b.Setp(sass.CmpLT, b.AddI(i, 1), n), func() {
					b.Assign(right, b.LdGlobalU32(b.Index(prev, b.AddI(i, 1), 2), 0))
				})
				best := b.Min(c, b.Min(left, right))
				d := b.LdGlobalU32(b.Index(data, i, 2), 0)
				b.StGlobalU32(b.Index(next, i, 2), 0, b.Add(d, best))
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
			const cols, rows = 1024, 8
			r := newRNG(151)
			grid := make([][]uint32, rows)
			for i := range grid {
				grid[i] = make([]uint32, cols)
				for j := range grid[i] {
					grid[i][j] = uint32(r.intn(10))
				}
			}
			bufs := [2]cuda.DevPtr{ctx.AllocU32("prev", grid[0]), ctx.Malloc(4 * cols)}
			for row := 1; row < rows; row++ {
				dData := ctx.AllocU32(fmt.Sprintf("row%d", row), grid[row])
				if _, err := ctx.LaunchKernel(prog, "pathfinder", sim.LaunchParams{
					Grid: sim.D1((cols + 127) / 128), Block: sim.D1(128),
					Args: []uint64{uint64(bufs[(row+1)%2]), uint64(dData), uint64(bufs[row%2]),
						uint64(cols)},
				}); err != nil {
					return nil, err
				}
			}
			got, err := ctx.ReadU32(bufs[(rows-1)%2], cols)
			if err != nil {
				return nil, err
			}
			prev := append([]uint32(nil), grid[0]...)
			next := make([]uint32, cols)
			for row := 1; row < rows; row++ {
				for i := 0; i < cols; i++ {
					best := prev[i]
					if i > 0 && prev[i-1] < best {
						best = prev[i-1]
					}
					if i+1 < cols && prev[i+1] < best {
						best = prev[i+1]
					}
					next[i] = grid[row][i] + best
				}
				prev, next = next, prev
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, prev, "pathfinder")
			res.Stdout = fmt.Sprintf("pathfinder %dx%d checksum=%08x\n", rows, cols, checksum(res.Output))
			return res, nil
		},
	}
}

// kmeansSpec is Rodinia kmeans' assignment step with per-cluster population
// counting via global atomics.
func kmeansSpec() *Spec {
	return &Spec{
		Name:     "rodinia.kmeans",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("kmeans_assign")
			pts := b.ParamU64("pts")
			ctrs := b.ParamU64("ctrs")
			member := b.ParamU64("member")
			counts := b.ParamU64("counts")
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
					better := b.Setp(sass.CmpLT, sum, best)
					b.Assign(best, b.Sel(better, sum, best))
					b.Assign(bestK, b.Sel(better, c, bestK))
					b.Assign(c, b.AddI(c, 1))
				})
				b.StGlobalU32(b.Index(member, i, 2), 0, bestK)
				b.AtomAddGlobal(b.Index(counts, bestK, 2), 0, b.ImmU32(1))
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
			const n, k, dim = 512, 5, 4
			r := newRNG(161)
			pts := r.f32s(n*dim, 0, 1)
			ctrs := r.f32s(k*dim, 0, 1)
			dPts := ctx.AllocF32("pts", pts)
			dCtr := ctx.AllocF32("ctrs", ctrs)
			dMem := ctx.Malloc(4 * n)
			dCnt := ctx.AllocU32("counts", make([]uint32, k))
			if _, err := ctx.LaunchKernel(prog, "kmeans_assign", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dPts), uint64(dCtr), uint64(dMem), uint64(dCnt),
					uint64(n), uint64(k), uint64(dim)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dMem, n)
			if err != nil {
				return nil, err
			}
			gotCnt, err := ctx.ReadU32(dCnt, k)
			if err != nil {
				return nil, err
			}
			want := make([]uint32, n)
			wantCnt := make([]uint32, k)
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
				wantCnt[want[i]]++
			}
			res := &Result{Output: append(u32Bytes(got), u32Bytes(gotCnt)...)}
			if err := compareU32(got, want, "kmeans membership"); err != nil {
				res.VerifyErr = err
			} else {
				res.VerifyErr = compareU32(gotCnt, wantCnt, "kmeans counts")
			}
			res.Stdout = fmt.Sprintf("kmeans n=%d k=%d checksum=%08x\n", n, k, checksum(res.Output))
			return res, nil
		},
	}
}

// nnSpec is Rodinia nn: Euclidean distances from every record to a query
// point — one branch (the range guard), fully coalesced.
func nnSpec() *Spec {
	return &Spec{
		Name:      "rodinia.nn",
		OutputTol: 1e-2,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("nn")
			lat := b.ParamU64("lat")
			lng := b.ParamU64("lng")
			dist := b.ParamU64("dist")
			qlat := b.ParamF32("qlat")
			qlng := b.ParamF32("qlng")
			n := b.ParamU32("n")
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				la := b.Sub(b.LdGlobalF32(b.Index(lat, i, 2), 0), qlat)
				lo := b.Sub(b.LdGlobalF32(b.Index(lng, i, 2), 0), qlng)
				b.StGlobalF32(b.Index(dist, i, 2), 0, b.Sqrt(b.Fma(la, la, b.Mul(lo, lo))))
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
			const n = 2048
			r := newRNG(171)
			lat := r.f32s(n, 0, 90)
			lng := r.f32s(n, 0, 180)
			qlat, qlng := float32(45), float32(90)
			dLat := ctx.AllocF32("lat", lat)
			dLng := ctx.AllocF32("lng", lng)
			dDist := ctx.Malloc(4 * n)
			if _, err := ctx.LaunchKernel(prog, "nn", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dLat), uint64(dLng), uint64(dDist),
					uint64(f32bitsOf(qlat)), uint64(f32bitsOf(qlng)), uint64(n)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dDist, n)
			if err != nil {
				return nil, err
			}
			want := make([]float32, n)
			for i := range want {
				la := float64(lat[i] - qlat)
				lo := float64(lng[i] - qlng)
				want[i] = float32(math.Sqrt(la*la + lo*lo))
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-3, "nn")
			res.Stdout = fmt.Sprintf("nn n=%d %s\n", n, f32Summary(res.Output))
			return res, nil
		},
	}
}

// backpropSpec is Rodinia backprop's forward layer:
// hidden[j] = sigmoid(sum_i in[i]*w[i][j]), sigmoid via exp2.
func backpropSpec() *Spec {
	return &Spec{
		Name:      "rodinia.backprop",
		OutputTol: 2e-2,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("backprop_forward")
			in := b.ParamU64("in")
			w := b.ParamU64("w")
			hidden := b.ParamU64("hidden")
			nIn := b.ParamU32("nIn")
			nHid := b.ParamU32("nHid")
			j := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, j, nHid), func() {
				sum := b.Var(b.ImmF32(0))
				i := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.Setp(sass.CmpLT, i, nIn) }, func() {
					iv := b.LdGlobalF32(b.Index(in, i, 2), 0)
					wv := b.LdGlobalF32(b.Index(w, b.Mad(i, nHid, j), 2), 0)
					b.Assign(sum, b.Fma(iv, wv, sum))
					b.Assign(i, b.AddI(i, 1))
				})
				// sigmoid(x) = 1 / (1 + 2^(-x*log2(e)))
				e2 := b.Ex2(b.Mul(sum, b.ImmF32(-1.4426950408889634)))
				b.StGlobalF32(b.Index(hidden, j, 2), 0, b.Rcp(b.Add(e2, b.ImmF32(1))))
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
			const nIn, nHid = 64, 256
			r := newRNG(181)
			in := r.f32s(nIn, -1, 1)
			w := r.f32s(nIn*nHid, -0.5, 0.5)
			dIn := ctx.AllocF32("in", in)
			dW := ctx.AllocF32("w", w)
			dHid := ctx.Malloc(4 * nHid)
			if _, err := ctx.LaunchKernel(prog, "backprop_forward", sim.LaunchParams{
				Grid: sim.D1((nHid + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dIn), uint64(dW), uint64(dHid),
					uint64(nIn), uint64(nHid)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dHid, nHid)
			if err != nil {
				return nil, err
			}
			want := make([]float32, nHid)
			for j := 0; j < nHid; j++ {
				var sum float64
				for i := 0; i < nIn; i++ {
					sum += float64(in[i]) * float64(w[i*nHid+j])
				}
				want[j] = float32(1 / (1 + math.Exp(-sum)))
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 2e-2, "backprop")
			res.Stdout = fmt.Sprintf("backprop %d->%d %s\n", nIn, nHid, f32Summary(res.Output))
			return res, nil
		},
	}
}
