package workloads

import (
	"fmt"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func init() { register(vecAddSpec()) }

// vecAddSpec is the quickstart workload: out[i] = a[i] + b[i].
func vecAddSpec() *Spec {
	return &Spec{
		Name:      "demo.vecadd",
		OutputTol: 1e-5,
		Datasets:  []string{"small", "large"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("vecadd")
			a := b.ParamU64("a")
			bb := b.ParamU64("b")
			out := b.ParamU64("out")
			n := b.ParamU32("n")
			i := b.GlobalTidX()
			b.If(b.Setp(sass.CmpLT, i, n), func() {
				av := b.LdGlobalF32(b.Index(a, i, 2), 0)
				bv := b.LdGlobalF32(b.Index(bb, i, 2), 0)
				b.StGlobalF32(b.Index(out, i, 2), 0, b.Add(av, bv))
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
			n := 512
			if dataset == "large" {
				n = 8192
			}
			r := newRNG(7)
			a := r.f32s(n, -1, 1)
			b := r.f32s(n, -1, 1)
			da := ctx.AllocF32("a", a)
			db := ctx.AllocF32("b", b)
			do := ctx.Malloc(uint64(4 * n))
			if _, err := ctx.LaunchKernel(prog, "vecadd", sim.LaunchParams{
				Grid: sim.D1((n + 127) / 128), Block: sim.D1(128),
				Args: []uint64{uint64(da), uint64(db), uint64(do), uint64(n)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(do, n)
			if err != nil {
				return nil, err
			}
			want := make([]float32, n)
			for i := range want {
				want[i] = a[i] + b[i]
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-6, "vecadd")
			res.Stdout = fmt.Sprintf("vecadd n=%d %s\n", n, f32Summary(res.Output))
			return res, nil
		},
	}
}
