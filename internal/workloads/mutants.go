package workloads

import (
	"fmt"
	"slices"
	"sort"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// Seed-buggy mutants: deliberately broken variants of workload kernels
// used to validate the concurrency checker (internal/analysis/concurrency
// statically, internal/handlers.RaceChecker dynamically). They live in a
// registry separate from the benchmark suite so Names()/All() — and
// everything iterating the suite, like CI's lint gate over built-ins —
// never picks them up.
var mutantRegistry = map[string]*Spec{}

func registerMutant(s *Spec) {
	if _, dup := mutantRegistry[s.Name]; dup {
		panic("workloads: duplicate mutant " + s.Name)
	}
	mutantRegistry[s.Name] = s
}

// GetMutant returns the named seed-buggy mutant.
func GetMutant(name string) (*Spec, bool) {
	s, ok := mutantRegistry[name]
	return s, ok
}

// MutantNames lists registered mutants, sorted.
func MutantNames() []string {
	out := make([]string, 0, len(mutantRegistry))
	for n := range mutantRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	registerMutant(sgemmVariant("mutant.sgemm-nobar", false))
	registerMutant(stencilHaloMutant())
	registerMutant(bfsFrontierMutant())
	registerMutant(cfiRetNoCallMutant())
	registerMutant(cfiCalMidBlockMutant())
	registerMutant(cfiSSYSkewMutant())
}

// cfiMutant derives a control-flow-integrity mutant from the calltree
// workload: the clean kernel compiles (and passes the Verify gate), then
// PostCompile corrupts one control instruction. The static cfi pass must
// reject the result, and the runtime CFIChecker must flag the same class
// during execution.
func cfiMutant(name string, mutate func(k *sass.Kernel) error) *Spec {
	s := callTreeSpec()
	s.Name = name
	s.PostCompile = func(prog *sass.Program) error {
		k, ok := prog.Kernel("calltree")
		if !ok {
			return fmt.Errorf("calltree kernel missing")
		}
		return mutate(k)
	}
	return s
}

// authored returns where the hand-authored calltree kernel's instruction i
// sits in k, which a scheduled build may have moved within its block
// (Kernel.SchedOrig), and guards the mutant's hardcoded index against drift
// in the authored layout: the instruction must be an op.
func authored(k *sass.Kernel, i int, op sass.Opcode) (int, error) {
	p := i
	if k.SchedOrig != nil {
		p = slices.Index(k.SchedOrig, i)
	}
	if p < 0 || p >= len(k.Instrs) || k.Instrs[p].Op != op {
		return 0, fmt.Errorf("calltree layout changed: instr %d is not %v", i, op)
	}
	return p, nil
}

// cfiRetNoCallMutant replaces the entry's final store with a RET: the
// return executes with an empty call stack (the matching CAL already
// popped). Statically that is "RET reachable with an empty call stack";
// dynamically the CFIChecker reports ret-underflow before the machine
// faults.
func cfiRetNoCallMutant() *Spec {
	return cfiMutant("mutant.cfi-ret-nocall", func(k *sass.Kernel) error {
		st, err := authored(k, 16, sass.OpSTG)
		if err != nil {
			return err
		}
		k.Instrs[st] = sass.New(sass.OpRET, nil, nil)
		return nil
	})
}

// cfiCalMidBlockMutant retargets the entry's CAL into the middle of fn1,
// past its first instructions: a call into the interior of a region. The
// static pass rejects it (mid-region entry, fn2's RET no longer reachable
// from any call), and the CFI loader's fail-closed validation refuses to
// arm the kernel.
func cfiCalMidBlockMutant() *Spec {
	return cfiMutant("mutant.cfi-cal-midblock", func(k *sass.Kernel) error {
		cal, err := authored(k, 12, sass.OpCAL)
		if err != nil {
			return err
		}
		// fn1's ISETP: skips fn1's CAL fn2 and LOP.
		target, err := authored(k, 20, sass.OpISETP)
		if err != nil {
			return err
		}
		k.Instrs[cal].Srcs[0].Imm = int64(target)
		return nil
	})
}

// cfiSSYSkewMutant drags fn1's SSY reconvergence target from the RET back
// onto the odd arm's SYNC, inside its own region: after reconvergence the
// warp replays that SYNC on an empty divergence stack and silently
// retires. Statically the SYNC loses its enclosing region; dynamically the
// CFIChecker reports sync-underflow.
func cfiSSYSkewMutant() *Spec {
	return cfiMutant("mutant.cfi-ssy-skew", func(k *sass.Kernel) error {
		ssy, err := authored(k, 21, sass.OpSSY)
		if err != nil {
			return err
		}
		// The odd arm's SYNC, not the reconvergence point.
		target, err := authored(k, 26, sass.OpSYNC)
		if err != nil {
			return err
		}
		k.Instrs[ssy].Srcs[0].Imm = int64(target)
		return nil
	})
}

// stencilHaloMutant is a 1-D three-point stencil whose barrier between
// staging the input into shared memory and reading the neighbour's slot
// is missing: thread t reads slot t+1 before its owner is guaranteed to
// have written it (the classic halo race).
func stencilHaloMutant() *Spec {
	const n = 64
	return &Spec{
		Name:      "mutant.stencil-halo",
		OutputTol: 1e-5,
		Datasets:  []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("stencil")
			b.ReqBlock(n, 1, 1)
			pin := b.ParamU64("in")
			pout := b.ParamU64("out")
			off := b.F.AllocShared(n * 4)

			t := b.TidX()
			myAddr := b.AddI(b.ShlI(t, 2), int64(off))
			b.StSharedF32(myAddr, 0, b.LdGlobalF32(b.Index(pin, t, 2), 0))
			// BUG: b.Bar() belongs here — the halo read below crosses warps.
			right := b.Min(b.AddI(t, 1), b.ImmU32(n-1))
			sum := b.Add(
				b.LdSharedF32(myAddr, 0),
				b.LdSharedF32(b.AddI(b.ShlI(right, 2), int64(off)), 0))
			b.StGlobalF32(b.Index(pout, t, 2), 0, sum)
			f, err := b.Done()
			if err != nil {
				return nil, err
			}
			m := ptx.NewModule()
			m.Add(f)
			return m, nil
		},
		Run: func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error) {
			r := newRNG(23)
			in := r.f32s(n, -1, 1)
			din := ctx.AllocF32("in", in)
			dout := ctx.Malloc(4 * n)
			if _, err := ctx.LaunchKernel(prog, "stencil", sim.LaunchParams{
				Grid: sim.D1(1), Block: sim.D1(n),
				Args: []uint64{uint64(din), uint64(dout)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadF32(dout, n)
			if err != nil {
				return nil, err
			}
			want := make([]float32, n)
			for i := 0; i < n; i++ {
				j := i + 1
				if j > n-1 {
					j = n - 1
				}
				want[i] = in[i] + in[j]
			}
			res := &Result{Output: f32Bytes(got)}
			res.VerifyErr = compareF32(got, want, 1e-5, "stencil")
			res.Stdout = fmt.Sprintf("stencil n=%d %s\n", n, f32Summary(res.Output))
			return res, nil
		},
	}
}

// bfsFrontierMutant models a BFS frontier push whose shared next-frontier
// counter is bumped with a plain load/add/store instead of an atomic:
// concurrent increments in the same barrier interval lose updates.
func bfsFrontierMutant() *Spec {
	const n = 64
	return &Spec{
		Name:     "mutant.bfs-frontier",
		Datasets: []string{"small"},
		Build: func() (*ptx.Module, error) {
			b := ptx.NewKernel("bfs_frontier")
			b.ReqBlock(n, 1, 1)
			pin := b.ParamU64("active")
			pout := b.ParamU64("count")
			cnt := b.F.AllocShared(4)

			t := b.TidX()
			cntAddr := b.Var(b.ImmU32(0))
			b.If(b.SetpI(sass.CmpEQ, t, 0), func() {
				b.StSharedU32(cntAddr, int64(cnt), b.ImmU32(0))
			})
			b.Bar()
			active := b.SetpI(sass.CmpNE, b.LdGlobalU32(b.Index(pin, t, 2), 0), 0)
			b.If(active, func() {
				// BUG: should be b.AtomAddShared(cntAddr, int64(cnt), ...).
				v := b.LdSharedU32(cntAddr, int64(cnt))
				b.StSharedU32(cntAddr, int64(cnt), b.AddI(v, 1))
			})
			b.Bar()
			b.If(b.SetpI(sass.CmpEQ, t, 0), func() {
				b.StGlobalU32(pout, 0, b.LdSharedU32(cntAddr, int64(cnt)))
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
			active := make([]uint32, n)
			want := uint32(0)
			for i := range active {
				if i%3 != 0 {
					active[i] = 1
					want++
				}
			}
			din := ctx.AllocU32("active", active)
			dout := ctx.Malloc(4)
			if _, err := ctx.LaunchKernel(prog, "bfs_frontier", sim.LaunchParams{
				Grid: sim.D1(1), Block: sim.D1(n),
				Args: []uint64{uint64(din), uint64(dout)},
			}); err != nil {
				return nil, err
			}
			got, err := ctx.ReadU32(dout, 1)
			if err != nil {
				return nil, err
			}
			res := &Result{Output: u32Bytes(got)}
			res.VerifyErr = compareU32(got, []uint32{want}, "bfs frontier count")
			res.Stdout = fmt.Sprintf("bfs frontier=%d\n", got[0])
			return res, nil
		},
	}
}
