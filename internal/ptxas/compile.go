package ptxas

import (
	"fmt"

	"sassi/internal/analysis"
	"sassi/internal/ptx"
	"sassi/internal/sass"
)

// Options configure the backend.
type Options struct {
	// Schedule enables the post-RA list scheduler (schedule.go): each
	// block is reordered into a stall-minimizing topological order of the
	// dependence DAG, with provenance recorded in Kernel.SchedOrig for the
	// `schedule` verifier check to certify.
	Schedule bool

	// SchedSeed perturbs the scheduler's tie-breaking (0 = deterministic
	// baseline heuristic). The autotuner sweeps seeds to explore
	// greedy-equivalent schedules. Ignored unless Schedule is set.
	SchedSeed uint64

	// Verify controls the static-verification post-pass over the emitted
	// SASS (internal/analysis). The zero value runs it under `go test`
	// only; see analysis.VerifyMode.
	Verify analysis.VerifyMode
}

// CacheKey returns a string uniquely identifying these options, for use as
// part of a compile-cache key.
func (o Options) CacheKey() string {
	return fmt.Sprintf("sched=%t schedseed=%d verify=%t",
		o.Schedule, o.SchedSeed, o.Verify.Enabled())
}

// Compile lowers a verified PTX module into a SASS program.
func Compile(m *ptx.Module, opts Options) (*sass.Program, error) {
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("ptxas: %w", err)
	}
	prog := sass.NewProgram()
	for _, f := range m.Funcs {
		k, err := compileFunc(f)
		if err != nil {
			return nil, err
		}
		prog.AddKernel(k)
	}
	if err := Finish(prog, opts); err != nil {
		return nil, err
	}
	return prog, nil
}

// Finish is the tail every program takes, lowered from PTX or authored as
// SASS: each kernel is scheduled if opts.Schedule and checked by
// checkKernel, then the program is verified if opts.Verify is enabled.
func Finish(prog *sass.Program, opts Options) error {
	for _, k := range prog.Kernels {
		if opts.Schedule {
			scheduleKernel(k, opts.SchedSeed)
		}
		if err := checkKernel(k); err != nil {
			return fmt.Errorf("ptxas: %w", err)
		}
	}
	if opts.Verify.Enabled() {
		if diags := analysis.Verify(prog); analysis.HasErrors(diags) {
			return fmt.Errorf("ptxas: emitted SASS failed verification: %w",
				&analysis.VerifyError{Diags: diags})
		}
	}
	return nil
}

// compileFunc lowers a single kernel, up to Finish.
func compileFunc(f *ptx.Func) (*sass.Kernel, error) {
	st := newValueStats(f)
	copyPropagate(f, st)
	deadCodeEliminate(f, st)
	reduceDeadAtomics(f, st)
	ivs, err := liveAnalysis(f)
	if err != nil {
		return nil, fmt.Errorf("ptxas: %s: %w", f.Name, err)
	}
	alloc, err := allocate(ivs)
	if err != nil {
		return nil, fmt.Errorf("ptxas: %s: %w", f.Name, err)
	}
	k := &sass.Kernel{Name: f.Name, SharedBytes: f.SharedBytes, BlockDim: f.ReqBlock}
	for _, p := range f.Params {
		k.AddParam(p.Name, p.Size)
	}
	lo := &lowerer{f: f, a: alloc, k: k}
	lo.lower()
	coalesceMovs(k)
	ifConvert(k)
	if err := k.ResolveLabels(); err != nil {
		return nil, fmt.Errorf("ptxas: %w", err)
	}
	k.NumRegs = alloc.numRegs
	k.NumPreds = alloc.numPred
	return k, nil
}

// checkKernel refuses what the compiler must never emit: an instruction the
// launch would refuse (sass.Kernel.CheckInstr) or a kernel with no EXIT.
func checkKernel(k *sass.Kernel) error {
	if err := k.CheckResources(); err != nil {
		return fmt.Errorf("kernel %s: %v", k.Name, err)
	}
	exit := false
	for i := range k.Instrs {
		if _, err := k.CheckInstr(i); err != nil {
			return fmt.Errorf("kernel %s@%d: %v", k.Name, i, err)
		}
		exit = exit || k.Instrs[i].Op == sass.OpEXIT
	}
	if !exit {
		return fmt.Errorf("kernel %s: no EXIT instruction", k.Name)
	}
	return nil
}

// coalesceMovs removes MOV Rd, Rd no-ops that register allocation created
// by assigning a copy's source and destination the same register,
// compacting the stream in place.
func coalesceMovs(k *sass.Kernel) {
	keep := k.Instrs[:0]
	// oldIdx -> newIdx mapping for label fixup.
	remap := make([]int, len(k.Instrs)+1)
	for i := range k.Instrs {
		remap[i] = len(keep)
		in := &k.Instrs[i]
		if in.Op == sass.OpMOV &&
			len(in.Dsts) == 1 && len(in.Srcs) == 1 &&
			in.Dsts[0].Kind == sass.OpdReg && in.Srcs[0].Kind == sass.OpdReg &&
			in.Dsts[0].Reg == in.Srcs[0].Reg {
			continue
		}
		keep = append(keep, *in)
	}
	remap[len(k.Instrs)] = len(keep)
	k.Instrs = keep
	for name, idx := range k.Labels {
		k.Labels[name] = remap[idx]
	}
}

// ifConvert predicates short, side-exit-free branch bodies, eliminating the
// SSY/BRA/SYNC overhead — producing the "@P0 ST.E" style guarded
// instructions seen in the paper's Figure 2. The pattern matched is exactly
// what the ptx.Builder emits for If with a small body:
//
//	SSY Lreconv
//	@[!]P BRA Lsync
//	<= maxIfConvert unguarded, non-control instructions
//	Lsync: SYNC
//	Lreconv:
const maxIfConvert = 8

func ifConvert(k *sass.Kernel) {
	changed := true
	for changed {
		changed = false
		for i := 0; i+2 < len(k.Instrs); i++ {
			if k.Instrs[i].Op != sass.OpSSY {
				continue
			}
			ssyTarget, _ := k.Instrs[i].BranchTarget()
			br := &k.Instrs[i+1]
			if br.Op != sass.OpBRA || br.Guard.IsAlways() {
				continue
			}
			brTarget, _ := br.BranchTarget()
			syncPos, ok := k.Labels[brTarget.Name]
			if !ok {
				continue
			}
			reconvPos, ok := k.Labels[ssyTarget.Name]
			if !ok || reconvPos != syncPos+1 {
				continue
			}
			body := syncPos - (i + 2)
			if body < 0 || body > maxIfConvert {
				continue
			}
			if syncPos >= len(k.Instrs) || k.Instrs[syncPos].Op != sass.OpSYNC {
				continue
			}
			ok = true
			for j := i + 2; j < syncPos; j++ {
				in := &k.Instrs[j]
				if !in.Guard.IsAlways() || in.Op.IsControlXfer() || in.Op.IsSync() ||
					in.Op == sass.OpEXIT || in.Op == sass.OpBAR {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// No other instruction may target the two labels.
			if labelRefCount(k, brTarget.Name) != 1 || labelRefCount(k, ssyTarget.Name) != 1 {
				continue
			}
			// Predicate the body with the inverse of the branch guard
			// (the branch skipped the body when the guard held).
			bodyGuard := sass.PredGuard{Reg: br.Guard.Reg, Neg: !br.Guard.Neg}
			for j := i + 2; j < syncPos; j++ {
				k.Instrs[j].Guard = bodyGuard
			}
			removeInstrs(k, []int{i, i + 1, syncPos})
			delete(k.Labels, brTarget.Name)
			delete(k.Labels, ssyTarget.Name)
			changed = true
			break
		}
	}
}

// labelRefCount counts instructions referencing a label by name.
func labelRefCount(k *sass.Kernel, name string) int {
	n := 0
	for i := range k.Instrs {
		for _, s := range k.Instrs[i].Srcs {
			if s.Kind == sass.OpdLabel && s.Name == name {
				n++
			}
		}
	}
	return n
}

// removeInstrs deletes the given (sorted ascending) instruction indices,
// compacting the stream in place, and remaps labels.
func removeInstrs(k *sass.Kernel, drop []int) {
	for name, idx := range k.Labels {
		// A label moves up by the number of dropped instructions before it.
		shift := 0
		for _, d := range drop {
			if d < idx {
				shift++
			}
		}
		k.Labels[name] = idx - shift
	}
	keep := k.Instrs[:0]
	for i := range k.Instrs {
		if len(drop) > 0 && drop[0] == i {
			drop = drop[1:]
			continue
		}
		keep = append(keep, k.Instrs[i])
	}
	k.Instrs = keep
}
