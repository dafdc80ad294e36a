// Package workloads provides the benchmark suite the case studies run on:
// kernels in the spirit of Parboil, Rodinia, and miniFE, authored against
// the PTX builder, with host drivers, deterministic synthetic datasets, and
// CPU reference implementations for verification.
//
// The real benchmark inputs (road networks, MRI samples, ...) are not
// available here; each workload instead generates synthetic data shaped to
// exercise the same behavioural axes (branch divergence, memory address
// divergence, value locality) — see DESIGN.md for the substitution table.
package workloads

import (
	"fmt"
	"sort"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
)

// Result is what one workload run produced.
type Result struct {
	// Stdout is the run's printed summary (the analog of benchmark stdout,
	// used by the fault-injection outcome classifier).
	Stdout string
	// Output is the primary output buffer (the "output file").
	Output []byte
	// VerifyErr reports disagreement with the CPU reference; nil means the
	// GPU results matched.
	VerifyErr error
}

// Spec describes one workload.
type Spec struct {
	// Name is suite-qualified, e.g. "parboil.bfs".
	Name string
	// Datasets lists accepted dataset keys; the first is the default.
	Datasets []string
	// Build constructs the workload's kernels.
	Build func() (*ptx.Module, error)
	// BuildProgram, when set, takes precedence over Build: the workload is
	// authored directly in SASS rather than lowered through ptx/ptxas.
	// Needed for shapes the PTX builder never emits (CAL/RET call trees).
	// The program still passes through the ptxas verification gate.
	BuildProgram func() (*sass.Program, error)
	// PostCompile, when set, mutates the program after compilation and
	// verification. Seed-buggy mutants use it to corrupt a clean kernel —
	// the corruption lands after the compile-time Verify gate, so the
	// static checkers under test (sassi-lint, load-time CFI validation)
	// are the first line that can reject it.
	PostCompile func(prog *sass.Program) error
	// Run generates inputs for the dataset, launches kernels on ctx with
	// the given compiled program, verifies against the CPU reference, and
	// returns the result. It must be deterministic.
	Run func(ctx *cuda.Context, prog *sass.Program, dataset string) (*Result, error)

	// OutputTol, when nonzero, declares Output to be a float32 array that
	// downstream comparisons (the fault-injection outcome classifier)
	// should compare with this relative tolerance — the analog of Parboil
	// and Rodinia's tolerance-based output comparators. Zero means
	// bit-exact integer output.
	OutputTol float64
}

// OutputsMatch compares two output buffers under the workload's comparator.
func (s *Spec) OutputsMatch(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	if s.OutputTol == 0 {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := 0; i+4 <= len(a); i += 4 {
		fa := f32FromBytes(a[i:])
		fb := f32FromBytes(b[i:])
		if fa != fb && !f32Close(fa, fb, s.OutputTol) {
			return false
		}
	}
	return true
}

// DefaultDataset returns the workload's default dataset key.
func (s *Spec) DefaultDataset() string {
	if len(s.Datasets) == 0 {
		return ""
	}
	return s.Datasets[0]
}

// HasDataset reports whether the key is valid for this workload.
func (s *Spec) HasDataset(d string) bool {
	for _, x := range s.Datasets {
		if x == d {
			return true
		}
	}
	return false
}

// Compile builds and compiles the workload's module. SASS-authored
// workloads (BuildProgram) skip ptxas lowering but take the same tail,
// ptxas.Finish: scheduling, the output check and verification.
// PostCompile runs last, after that tail.
func (s *Spec) Compile(opts ptxas.Options) (*sass.Program, error) {
	var prog *sass.Program
	if s.BuildProgram != nil {
		p, err := s.BuildProgram()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.Name, err)
		}
		if err := ptxas.Finish(p, opts); err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.Name, err)
		}
		prog = p
	} else {
		m, err := s.Build()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.Name, err)
		}
		p, err := ptxas.Compile(m, opts)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.Name, err)
		}
		prog = p
	}
	if s.PostCompile != nil {
		if err := s.PostCompile(prog); err != nil {
			return nil, fmt.Errorf("workload %s: post-compile: %w", s.Name, err)
		}
	}
	return prog, nil
}

// CompileCached is Compile through a shared compile cache: every caller
// asking for the same (workload, backend options) pair shares one compiled
// program. A nil cache falls back to a fresh compile. The returned program
// is shared — treat it as read-only; CompileInstrumented caches an
// instrumented variant.
func (s *Spec) CompileCached(cache *sassi.CompileCache, opts ptxas.Options) (*sass.Program, error) {
	if cache == nil {
		return s.Compile(opts)
	}
	return cache.Get(s.CompileKey(opts), func() (*sass.Program, error) {
		return s.Compile(opts)
	})
}

// CompileKey is the compile-cache key for this workload's uninstrumented
// program under the given backend options.
func (s *Spec) CompileKey(opts ptxas.Options) string {
	return "workload=" + s.Name + " ptxas[" + opts.CacheKey() + "]"
}

// CompileInstrumented compiles this workload with ptxOpts and instruments
// it with opts, sharing the result through cache like CompileCached. It
// builds fresh when cache is nil or opts.CacheKey says the options cannot
// be cached. With a cache, it instruments a clone of CompileCached's
// program, so that the workload is compiled once for both. The build that
// runs reports to opts.Metrics and opts.Trace; a cache hit builds nothing
// and reports nothing.
func (s *Spec) CompileInstrumented(cache *sassi.CompileCache, ptxOpts ptxas.Options, opts sassi.Options) (*sass.Program, error) {
	build := func() (*sass.Program, error) {
		prog, err := s.CompileCached(cache, ptxOpts)
		if err != nil {
			return nil, err
		}
		if cache != nil {
			prog = prog.Clone()
		}
		if err := sassi.Instrument(prog, opts); err != nil {
			return nil, err
		}
		return prog, nil
	}
	instKey, ok := opts.CacheKey()
	if cache == nil || !ok {
		return build()
	}
	return cache.Get(s.CompileKey(ptxOpts)+" inst["+instKey+"]", build)
}

var registry = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workloads: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

// Get returns the named workload.
func Get(name string) (*Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names lists registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns all specs in name order.
func All() []*Spec {
	var out []*Spec
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// f32Close reports approximate float equality with a relative tolerance
// wide enough to absorb MUFU/FFMA rounding differences vs float64 refs.
func f32Close(a, b float32, tol float64) bool {
	d := float64(a) - float64(b)
	if d < 0 {
		d = -d
	}
	m := float64(a)
	if m < 0 {
		m = -m
	}
	if bb := float64(b); bb > m {
		m = bb
	} else if -bb > m {
		m = -bb
	}
	return d <= tol*(1+m)
}

// compareF32 verifies a float buffer against its reference.
func compareF32(got, want []float32, tol float64, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if !f32Close(got[i], want[i], tol) {
			return fmt.Errorf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// compareU32 verifies a uint32 buffer against its reference.
func compareU32(got, want []uint32, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// f32Bytes serializes floats for Result.Output.
func f32Bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, f := range v {
		putF32(out[4*i:], f)
	}
	return out
}

// u32Bytes serializes uint32s for Result.Output.
func u32Bytes(v []uint32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		putU32(out[4*i:], x)
	}
	return out
}

// f32Summary renders a float output buffer as a rounded aggregate, the way
// benchmark stdout reports results (timing/summary lines rather than exact
// dumps). Rounding makes the printed summary insensitive to within-
// tolerance perturbations, which the fault classifier relies on.
func f32Summary(b []byte) string {
	var sum float64
	n := 0
	for i := 0; i+4 <= len(b); i += 4 {
		sum += float64(f32FromBytes(b[i:]))
		n++
	}
	if n == 0 {
		return "mean=0"
	}
	return fmt.Sprintf("mean=%.3g", sum/float64(n))
}

// checksum is a tiny FNV-style digest used in Stdout summaries.
func checksum(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}
