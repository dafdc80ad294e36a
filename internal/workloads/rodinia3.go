package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() {
	register(btreeSpec())
	register(nwSpec())
	register(lavamdSpec())
	register(mummerSpec())
	register(ludSpec())
}

// btreeSpec is Rodinia b+tree: batched key search over a node-linked tree.
// Each thread walks root-to-leaf comparing its key against node fences —
// pointer chasing with data-dependent comparisons (scalar-heavy values,
// divergent at the leaves).
func btreeSpec() *Spec {
	const order = 8 // keys per node
	return &Spec{
		Name:     "rodinia.b+tree",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("btree_find")
			// Node layout (uint32 words): keys[order], children[order+1],
			// isLeaf. Children hold node indices; at leaves they hold
			// value payloads.
			nodes := b.ParamU64("nodes")
			queries := b.ParamU64("queries")
			out := b.ParamU64("out")
			n := b.ParamU32("n")
			height := b.ParamU32("height")
			const stride = order + order + 1 + 1 // words per node
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				key := b.LdGlobalU32(b.Index(queries, i, 2), 0)
				node := b.Var(b.ImmU32(0))
				lvl := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.Setp(sass.CmpLT, lvl, height) }, func() {
					base := b.Mul(node, b.ImmU32(stride))
					// Find first key > query (linear fence scan).
					k := b.Var(b.ImmU32(0))
					b.While(func() ptx.Value {
						inRange := b.SetpI(sass.CmpLT, k, order)
						fence := b.LdGlobalU32(b.Index(nodes, b.Add(base, k), 2), 0)
						return b.PAnd(inRange, b.Setp(sass.CmpLE, fence, key))
					}, func() {
						b.Assign(k, b.AddI(k, 1))
					})
					child := b.LdGlobalU32(b.Index(nodes, b.Add(base, b.AddI(k, order)), 2), 0)
					b.Assign(node, child)
					b.Assign(lvl, b.AddI(lvl, 1))
				})
				b.StGlobalU32(b.Index(out, i, 2), 0, node)
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
			const stride = order + order + 1 + 1
			const height = 3
			// Build a dense tree: order^height leaves keyed 0..N.
			numInner := 1 + order + order*order // levels 0..2 node counts
			numNodes := numInner
			nodes := make([]uint32, numNodes*stride)
			// Key space: leaves represent buckets of width 1; inner fences
			// split evenly.
			var buildNode func(id, lo, hi, lvl int) // [lo,hi) key range
			next := 1
			buildNode = func(id, lo, hi, lvl int) {
				base := id * stride
				span := (hi - lo) / order
				if span < 1 {
					span = 1
				}
				for k := 0; k < order; k++ {
					fence := lo + (k+1)*span
					nodes[base+k] = uint32(fence)
				}
				for c := 0; c <= order; c++ {
					if lvl == height-1 {
						// Leaf child: payload = bucket id.
						nodes[base+order+c] = uint32(lo + c*span)
					} else if c < order {
						child := next
						next++
						nodes[base+order+c] = uint32(child)
						buildNode(child, lo+c*span, lo+(c+1)*span, lvl+1)
					} else {
						nodes[base+order+c] = nodes[base+order+c-1]
					}
				}
			}
			// Only two levels of inner nodes are walked before payloads;
			// height=3 walks: root -> inner -> payload.
			buildNode(0, 0, 512, 1)
			const nq = 1024
			r := newRNG(191)
			queries := make([]uint32, nq)
			for i := range queries {
				queries[i] = uint32(r.intn(512))
			}
			dNodes := ctx.AllocU32("nodes", nodes)
			dQ := ctx.AllocU32("queries", queries)
			dOut := ctx.Malloc(4 * nq)
			if _, err := ctx.LaunchKernel(prog, "btree_find", sim.LaunchParams{
				Grid: sim.D1((nq + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dNodes), uint64(dQ), uint64(dOut),
					uint64(nq), uint64(2)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dOut, nq)
			if err != nil {
				return nil, err
			}
			// CPU reference walk.
			want := make([]uint32, nq)
			for i, q := range queries {
				node := uint32(0)
				for lvl := 0; lvl < 2; lvl++ {
					base := int(node) * stride
					k := 0
					for k < order && nodes[base+k] <= q {
						k++
					}
					node = nodes[base+order+k]
				}
				want[i] = node
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "b+tree")
			res.Stdout = fmt.Sprintf("b+tree queries=%d checksum=%08x\n", nq, checksum(res.Output))
			return res, nil
		},
	}
}

// nwSpec is Rodinia needle (Needleman-Wunsch): anti-diagonal wavefronts of
// the alignment score matrix, one kernel launch per diagonal.
func nwSpec() *Spec {
	return &Spec{
		Name:     "rodinia.nw",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("nw_diag")
			score := b.ParamU64("score") // (n+1)x(n+1) matrix of int32
			ref := b.ParamU64("ref")     // similarity matrix entries for cells
			n := b.ParamU32("n")
			diag := b.ParamU32("diag") // current anti-diagonal (2..2n)
			penalty := b.ParamU32("penalty")
			t := b.GlobalTidX()
			// Cells on the diagonal: i+j = diag, 1<=i,j<=n.
			// i = max(1, diag-n) + t; the subtraction must be signed or
			// diag<n underflows.
			one := b.ImmU32(1)
			lowI := b.AsU32(b.Max(b.ImmS32(1), b.Sub(b.AsS32(diag), b.AsS32(n))))
			i := b.Add(lowI, t)
			j := b.Sub(diag, i)
			valid := b.PAnd(b.Setp(sass.CmpLE, i, n),
				b.PAnd(b.SetpI(sass.CmpGE, j, 1), b.Setp(sass.CmpLE, j, n)))
			b.If(valid, func() {
				w := b.AddI(n, 1)
				idx := b.Mad(i, w, j)
				nw := b.AsS32(b.LdGlobalU32(b.Index(score, b.Sub(b.Sub(idx, w), one), 2), 0))
				up := b.AsS32(b.LdGlobalU32(b.Index(score, b.Sub(idx, w), 2), 0))
				left := b.AsS32(b.LdGlobalU32(b.Index(score, b.SubI(idx, 1), 2), 0))
				sim := b.AsS32(b.LdGlobalU32(b.Index(ref, idx, 2), 0))
				d := b.Add(nw, sim)
				p := b.AsS32(penalty)
				best := b.Max(d, b.Max(b.Sub(up, p), b.Sub(left, p)))
				b.StGlobalU32(b.Index(score, idx, 2), 0, b.AsU32(best))
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
			const n = 48
			const penalty = 1
			w := n + 1
			r := newRNG(201)
			ref := make([]uint32, w*w)
			for i := 1; i <= n; i++ {
				for j := 1; j <= n; j++ {
					ref[i*w+j] = uint32(int32(r.intn(21) - 10))
				}
			}
			score := make([]uint32, w*w)
			for i := 0; i <= n; i++ {
				score[i*w] = uint32(int32(-i * penalty))
				score[i] = uint32(int32(-i * penalty))
			}
			dScore := ctx.AllocU32("score", score)
			dRef := ctx.AllocU32("ref", ref)
			for diag := 2; diag <= 2*n; diag++ {
				cells := n
				if _, err := ctx.LaunchKernel(prog, "nw_diag", sim.LaunchParams{
					Grid: sim.D1((cells + 63) / 64), Block: sim.D1(64),
					Args: []uint64{uint64(dScore), uint64(dRef),
						uint64(n), uint64(diag), uint64(penalty)},
				}); err != nil {
					return nil, err
				}
			}
			got, err := ctx.ReadU32(dScore, w*w)
			if err != nil {
				return nil, err
			}
			want := append([]uint32(nil), score...)
			for i := 1; i <= n; i++ {
				for j := 1; j <= n; j++ {
					d := int32(want[(i-1)*w+j-1]) + int32(ref[i*w+j])
					up := int32(want[(i-1)*w+j]) - penalty
					left := int32(want[i*w+j-1]) - penalty
					best := d
					if up > best {
						best = up
					}
					if left > best {
						best = left
					}
					want[i*w+j] = uint32(best)
				}
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "nw score")
			res.Stdout = fmt.Sprintf("nw n=%d score=%d checksum=%08x\n",
				n, int32(got[n*w+n]), checksum(res.Output))
			return res, nil
		},
	}
}

// lavamdSpec is Rodinia lavaMD: particles in a box interact with particles
// in neighbor boxes — nested uniform loops with gathered reads.
func lavamdSpec() *Spec {
	return &Spec{
		Name:      "rodinia.lavaMD",
		OutputTol: 2e-2,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("lavamd")
			pos := b.ParamU64("pos") // 3 floats per particle
			nbr := b.ParamU64("nbr") // neighbor box ids per box
			force := b.ParamU64("force")
			perBox := b.ParamU32("perBox")
			nnbr := b.ParamU32("nnbr")
			// One thread per particle; box = ctaid, particle = tid.
			box := b.CtaX()
			p := b.TidX()
			i := b.Mad(box, perBox, p)
			myBase := b.Index(pos, b.Mul(i, b.ImmU32(3)), 2)
			x := b.LdGlobalF32(myBase, 0)
			y := b.LdGlobalF32(myBase, 4)
			z := b.LdGlobalF32(myBase, 8)
			acc := b.Var(b.ImmF32(0))
			k := b.Var(b.ImmU32(0))
			b.While(func() ptx.Value { return b.Setp(sass.CmpLT, k, nnbr) }, func() {
				nb := b.LdGlobalU32(b.Index(nbr, b.Mad(box, nnbr, k), 2), 0)
				q := b.Var(b.ImmU32(0))
				b.While(func() ptx.Value { return b.Setp(sass.CmpLT, q, perBox) }, func() {
					j := b.Mad(nb, perBox, q)
					jb := b.Index(pos, b.Mul(j, b.ImmU32(3)), 2)
					dx := b.Sub(x, b.LdGlobalF32(jb, 0))
					dy := b.Sub(y, b.LdGlobalF32(jb, 4))
					dz := b.Sub(z, b.LdGlobalF32(jb, 8))
					r2 := b.Fma(dx, dx, b.Fma(dy, dy, b.Mul(dz, dz)))
					// Soft-core potential contribution.
					b.Assign(acc, b.Add(acc, b.Rcp(b.Add(r2, b.ImmF32(0.5)))))
					b.Assign(q, b.AddI(q, 1))
				})
				b.Assign(k, b.AddI(k, 1))
			})
			b.StGlobalF32(b.Index(force, i, 2), 0, acc)
			f, err := b.Done()
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			const boxes, perBox, nnbr = 8, 32, 4
			n := boxes * perBox
			r := newRNG(211)
			pos := r.f32s(3*n, 0, 4)
			nbrs := make([]uint32, boxes*nnbr)
			for bx := 0; bx < boxes; bx++ {
				for k := 0; k < nnbr; k++ {
					nbrs[bx*nnbr+k] = uint32((bx + k) % boxes)
				}
			}
			dPos := ctx.AllocF32("pos", pos)
			dNbr := ctx.AllocU32("nbr", nbrs)
			dF := ctx.Malloc(uint64(4 * n))
			if _, err := ctx.LaunchKernel(prog, "lavamd", sim.LaunchParams{
				Grid: sim.D1(boxes), Block: sim.D1(perBox),
				Args: []uint64{uint64(dPos), uint64(dNbr), uint64(dF),
					uint64(perBox), uint64(nnbr)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dF, n)
			if err != nil {
				return nil, err
			}
			want := make([]float32, n)
			for bx := 0; bx < boxes; bx++ {
				for p := 0; p < perBox; p++ {
					i := bx*perBox + p
					var acc float32
					for k := 0; k < nnbr; k++ {
						nb := int(nbrs[bx*nnbr+k])
						for q := 0; q < perBox; q++ {
							j := nb*perBox + q
							dx := pos[3*i] - pos[3*j]
							dy := pos[3*i+1] - pos[3*j+1]
							dz := pos[3*i+2] - pos[3*j+2]
							r2 := dx*dx + (dy*dy + dz*dz)
							acc += 1 / (r2 + 0.5)
						}
					}
					want[i] = acc
				}
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 2e-2, "lavaMD")
			res.Stdout = fmt.Sprintf("lavaMD n=%d %s\n", n, f32Summary(res.Output))
			return res, nil
		},
	}
}

// mummerSpec approximates mummergpu: match query strings against a
// reference by walking a byte-comparison loop with data-dependent exits —
// string matching's characteristic divergence.
func mummerSpec() *Spec {
	return &Spec{
		Name:     "rodinia.mummergpu",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("mummer_match")
			refS := b.ParamU64("ref")
			queries := b.ParamU64("queries") // qlen bytes each
			out := b.ParamU64("out")         // best match length per query
			nq := b.ParamU32("nq")
			qlen := b.ParamU32("qlen")
			rlen := b.ParamU32("rlen")
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, nq), func() {
				qBase := b.Mul(i, qlen)
				best := b.Var(b.ImmU32(0))
				s := b.Var(b.ImmU32(0))
				end := b.Sub(rlen, qlen)
				b.While(func() ptx.Value { return b.Setp(sass.CmpLT, s, end) }, func() {
					m := b.Var(b.ImmU32(0))
					// Extend the match while bytes agree.
					b.While(func() ptx.Value {
						inQ := b.Setp(sass.CmpLT, m, qlen)
						qc := b.LdGlobalU8(b.Index(refS, b.Add(s, m), 0), 0)
						// NOTE: loads query via the queries pointer below.
						qq := b.LdGlobalU8(b.Index(queries, b.Add(qBase, m), 0), 0)
						return b.PAnd(inQ, b.Setp(sass.CmpEQ, qc, qq))
					}, func() {
						b.Assign(m, b.AddI(m, 1))
					})
					b.Assign(best, b.Max(best, m))
					b.Assign(s, b.AddI(s, 1))
				})
				b.StGlobalU32(b.Index(out, i, 2), 0, best)
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
			const nq, qlen, rlen = 256, 8, 512
			r := newRNG(221)
			refRaw := make([]byte, rlen)
			for i := range refRaw {
				refRaw[i] = byte("ACGT"[r.intn(4)])
			}
			qRaw := make([]byte, nq*qlen)
			for i := 0; i < nq; i++ {
				if r.intn(2) == 0 {
					// Plant a true substring so some queries match fully.
					s := r.intn(rlen - qlen)
					copy(qRaw[i*qlen:(i+1)*qlen], refRaw[s:s+qlen])
				} else {
					for j := 0; j < qlen; j++ {
						qRaw[i*qlen+j] = byte("ACGT"[r.intn(4)])
					}
				}
			}
			dRef := ctx.Malloc(rlen)
			_ = ctx.MemcpyHtoD(dRef, refRaw)
			dQ := ctx.Malloc(nq * qlen)
			_ = ctx.MemcpyHtoD(dQ, qRaw)
			dOut := ctx.Malloc(4 * nq)
			if _, err := ctx.LaunchKernel(prog, "mummer_match", sim.LaunchParams{
				Grid: sim.D1((nq + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(dRef), uint64(dQ), uint64(dOut),
					uint64(nq), uint64(qlen), uint64(rlen)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dOut, nq)
			if err != nil {
				return nil, err
			}
			want := make([]uint32, nq)
			for i := 0; i < nq; i++ {
				best := 0
				for s := 0; s < rlen-qlen; s++ {
					m := 0
					for m < qlen && refRaw[s+m] == qRaw[i*qlen+m] {
						m++
					}
					if m > best {
						best = m
					}
				}
				want[i] = uint32(best)
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, want, "mummer")
			res.Stdout = fmt.Sprintf("mummer nq=%d checksum=%08x\n", nq, checksum(res.Output))
			return res, nil
		},
	}
}

// ludSpec is Rodinia lud's right-looking update: per pivot k, scale the
// pivot column then rank-1 update the trailing submatrix.
func ludSpec() *Spec {
	return &Spec{
		Name:      "rodinia.lud",
		OutputTol: 5e-2,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			m := ptx.NewModule()

			b := ptx.NewKernel("lud_scale")
			a := b.ParamU64("a")
			n := b.ParamU32("n")
			k := b.ParamU32("k")
			i := b.Add(b.GlobalTidX(), b.AddI(k, 1))
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				piv := b.LdGlobalF32(b.Index(a, b.Mad(k, n, k), 2), 0)
				idx := b.Mad(i, n, k)
				v := b.LdGlobalF32(b.Index(a, idx, 2), 0)
				b.StGlobalF32(b.Index(a, idx, 2), 0, b.Mul(v, b.Rcp(piv)))
			})
			f1, err := b.Done()
			if err != nil {
				return nil, err
			}
			m.Add(f1)

			b2 := ptx.NewKernel("lud_update")
			a2 := b2.ParamU64("a")
			n2 := b2.ParamU32("n")
			k2 := b2.ParamU32("k")
			i2 := b2.Add(b2.GlobalTidX(), b2.AddI(k2, 1))
			j2 := b2.Add(b2.CtaY(), b2.AddI(k2, 1))
			b2.If(b2.PAnd(b2.Setp(sass.CmpLT, i2, n2), b2.Setp(sass.CmpLT, j2, n2)), func() {
				lik := b2.LdGlobalF32(b2.Index(a2, b2.Mad(i2, n2, k2), 2), 0)
				ukj := b2.LdGlobalF32(b2.Index(a2, b2.Mad(k2, n2, j2), 2), 0)
				idx := b2.Mad(i2, n2, j2)
				v := b2.LdGlobalF32(b2.Index(a2, idx, 2), 0)
				b2.StGlobalF32(b2.Index(a2, idx, 2), 0, b2.Sub(v, b2.Mul(lik, ukj)))
			})
			f2, err := b2.Done()
			if err != nil {
				return nil, err
			}
			m.Add(f2)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			const n = 20
			r := newRNG(231)
			mat := make([]float32, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					mat[i*n+j] = r.f32() - 0.5
				}
				mat[i*n+i] = float32(n)
			}
			ref := append([]float32(nil), mat...)
			dA := ctx.AllocF32("a", mat)
			for k := 0; k < n-1; k++ {
				rows := n - k - 1
				if _, err := ctx.LaunchKernel(prog, "lud_scale", sim.LaunchParams{
					Grid: sim.D1((rows + 63) / 64), Block: sim.D1(64),
					Args: []uint64{uint64(dA), uint64(n), uint64(k)},
				}); err != nil {
					return nil, err
				}
				if _, err := ctx.LaunchKernel(prog, "lud_update", sim.LaunchParams{
					Grid: sim.Dim3{X: (rows + 63) / 64, Y: rows, Z: 1}, Block: sim.D1(64),
					Args: []uint64{uint64(dA), uint64(n), uint64(k)},
				}); err != nil {
					return nil, err
				}
			}
			got, err := ctx.ReadF32(dA, n*n)
			if err != nil {
				return nil, err
			}
			for k := 0; k < n-1; k++ {
				piv := ref[k*n+k]
				for i := k + 1; i < n; i++ {
					ref[i*n+k] = ref[i*n+k] * (1 / piv)
				}
				for i := k + 1; i < n; i++ {
					for j := k + 1; j < n; j++ {
						ref[i*n+j] -= ref[i*n+k] * ref[k*n+j]
					}
				}
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, ref, 5e-2, "lud")
			res.Stdout = fmt.Sprintf("lud n=%d %s\n", n, f32Summary(res.Output))
			return res, nil
		},
	}
}
