package main

import (
	"fmt"

	"sassi/internal/difftest"
	"sassi/internal/workloads"
)

// sizes says how much each workload does in one iteration. fullSizes is what
// the benchmark measures; the tests run the same code on less.
type sizes struct {
	// basePrograms is the base-suite list; nil means every registered
	// program except the excluded ones.
	basePrograms []string
	// toolPrograms run under the branch and memdiv profilers,
	// valuePrograms under the value profiler.
	toolPrograms  []string
	valuePrograms []string
	// generated is the number of difftest kernels in compile-only;
	// suiteModules limits the suite modules beside them (nil means all).
	generated    int
	suiteModules []string
	campaigns    []campaign
	// replayPrograms are traced and replayed through the cache model.
	replayPrograms []string
}

type campaign struct {
	program    string
	injections int
}

// excluded programs never run in a launching workload: parboil.bfs's
// statistics depend on the order SMs execute in (73,662 warp instructions
// with sequential SMs, 74,701 with concurrent ones), which would break the
// exactness of model_mcycles and of every simulated counter.
var excluded = map[string]bool{"parboil.bfs": true}

// The tools-suite programs, one per behaviour the profilers react to.
var toolPrograms = []string{
	"parboil.sgemm",      // dense, mostly warp-uniform
	"parboil.spmv",       // irregular addresses
	"parboil.stencil",    // regular addresses
	"parboil.histo",      // atomics
	"rodinia.b+tree",     // divergent branches
	"rodinia.nn",         // tiny
	"rodinia.hotspot",    // shared memory, 2 launches
	"rodinia.pathfinder", // barriers, 7 launches
}

// fullSizes gives iterations of roughly 0.7 to 1.5 s on the 2-CPU sizing
// host, so a 10 s run holds enough of them for a steady median and the
// driver's ~90 runs fit its hour. That is why the value profiler, which
// costs 3.7 s on the eight tools-suite programs, runs on three of them, why
// compile-only generates 12 kernels and not 100, and why the campaigns make
// tens of injections and not hundreds.
var fullSizes = sizes{
	toolPrograms:  toolPrograms,
	valuePrograms: []string{"parboil.histo", "rodinia.b+tree", "rodinia.nn"},
	generated:     12,
	campaigns: []campaign{
		{"demo.vecadd", 32},
		{"rodinia.nn", 8},
		{"parboil.histo", 8},
	},
	replayPrograms: []string{"parboil.spmv", "parboil.stencil"},
}

// pass is a list of operations run once, back to back, under one root span.
type pass struct {
	name string
	ops  []op
	// procs is the GOMAXPROCS the pass runs at; 0 keeps the pinned value.
	procs int
	// reps is how often a decomposition pass runs; its figures are medians.
	reps int
}

// workload is one iteration's operations in the seed's order, plus the
// decomposition passes only a traced run makes.
type workload struct {
	ops    []op
	decomp []pass
}

// Names of the decomposition passes.
const (
	passUninstrumented = "decomp.uninstrumented" // the tools' programs without injection
	passNoop           = "decomp.noop"           // injected code, empty handler body
	passOneProc        = "decomp.gomaxprocs1"    // one iteration at GOMAXPROCS=1
	passReplay         = "decomp.replay"         // cache-model replay
	passOneWorker      = "decomp.workers1"       // campaigns with Workers=1
	passOneInjection   = "decomp.fixed"          // campaigns of one injection
)

// poolSeed generates compile-only's kernels. It is a constant, not the
// benchmark seed: kernels drawn per seed moved one iteration's wall clock by
// +-7% between seeds (cost per PTX instruction ranges 120-330 us with the
// share of memory operations), the whole of the bound on wall_s.
const poolSeed = 1

// generatedInputs returns the first n kernels of the fixed pool.
func generatedInputs(n int) []compileInput {
	size := difftest.DefaultSize()
	size.MaxStmts = 48
	inputs := make([]compileInput, n)
	for i := range inputs {
		prog := difftest.Generate(difftest.SplitMix(poolSeed, uint64(i)), size)
		inputs[i] = compileInput{fmt.Sprintf("generated/%d", i), prog.Build}
	}
	return inputs
}

func getSpec(name string) (*workloads.Spec, error) {
	s, ok := workloads.Get(name)
	if !ok {
		return nil, fmt.Errorf("bench: program %q is not registered", name)
	}
	return s, nil
}

func getSpecs(names []string) ([]*workloads.Spec, error) {
	specs := make([]*workloads.Spec, 0, len(names))
	for _, n := range names {
		s, err := getSpec(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// shuffle permutes ops with a Fisher-Yates walk driven by SplitMix(seed, i),
// so the order is a pure function of the seed on every Go version.
func shuffle(ops []op, seed uint64) {
	for i := len(ops) - 1; i > 0; i-- {
		j := int(difftest.SplitMix(seed, uint64(i)) % uint64(i+1))
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// newWorkload looks the programs up, generates the inputs and orders the
// operations: everything of set-up that is not the warm-up iteration.
func newWorkload(name string, seed uint64, sz sizes) (*workload, error) {
	w := &workload{}
	oneProc := func() { w.decomp = append(w.decomp, pass{name: passOneProc, ops: w.ops, procs: 1, reps: 1}) }
	switch name {
	case wlBase:
		names := sz.basePrograms
		if names == nil {
			for _, n := range workloads.Names() {
				if !excluded[n] {
					names = append(names, n)
				}
			}
		}
		specs, err := getSpecs(names)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			w.ops = append(w.ops, runOp(s, nil, false, ""))
		}
		shuffle(w.ops, seed)
		oneProc()
		if err := w.addReplay(sz); err != nil {
			return nil, err
		}

	case wlTools:
		var plain, noop []op
		for i := range tools {
			t := &tools[i]
			progs := sz.toolPrograms
			if t.name == "value" {
				progs = sz.valuePrograms
			}
			specs, err := getSpecs(progs)
			if err != nil {
				return nil, err
			}
			for _, s := range specs {
				w.ops = append(w.ops, runOp(s, t, false, t.name))
				noop = append(noop, runOp(s, t, true, t.name))
				plain = append(plain, runOp(s, nil, false, t.name))
			}
		}
		shuffle(w.ops, seed)
		w.decomp = append(w.decomp, pass{name: passUninstrumented, ops: plain, reps: 3}, pass{name: passNoop, ops: noop, reps: 3})
		oneProc()
		if err := w.addReplay(sz); err != nil {
			return nil, err
		}

	case wlCompile:
		inputs := generatedInputs(sz.generated)
		var specs []*workloads.Spec
		if sz.suiteModules == nil {
			specs = workloads.All()
		} else {
			var err error
			if specs, err = getSpecs(sz.suiteModules); err != nil {
				return nil, err
			}
		}
		for _, s := range specs {
			if s.Build != nil && s.BuildProgram == nil { // SASS-authored programs have no PTX
				inputs = append(inputs, compileInput{s.Name, s.Build})
			}
		}
		opts := toolOptions()
		for _, in := range inputs {
			w.ops = append(w.ops, compileOp(in, opts))
		}
		shuffle(w.ops, seed)

	case wlFI:
		var one, serial []op
		for _, c := range sz.campaigns {
			s, err := getSpec(c.program)
			if err != nil {
				return nil, err
			}
			w.ops = append(w.ops, campaignOp(s, c.injections, 0))
			serial = append(serial, campaignOp(s, c.injections, 1))
			one = append(one, campaignOp(s, 1, 0))
		}
		shuffle(w.ops, seed)
		w.decomp = append(w.decomp, pass{name: passOneWorker, ops: serial, reps: 1}, pass{name: passOneInjection, ops: one, reps: 3})

	default:
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames())
	}
	if len(w.ops) == 0 {
		return nil, fmt.Errorf("bench: workload %s has no operations", name)
	}
	return w, nil
}

func (w *workload) addReplay(sz sizes) error {
	specs, err := getSpecs(sz.replayPrograms)
	if err != nil {
		return err
	}
	var ops []op
	for _, s := range specs {
		ops = append(ops, replayOp(s))
	}
	if len(ops) > 0 {
		w.decomp = append(w.decomp, pass{name: passReplay, ops: ops, reps: 3})
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadInfos))
	for i, w := range workloadInfos {
		names[i] = w.Name
	}
	return names
}
