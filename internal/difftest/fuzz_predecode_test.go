package difftest

import (
	"testing"
)

// FuzzPredecode drives the execution axis only: each seed's kernel runs
// uninstrumented on the reference interpreter and on the default
// (predecoded) core, and any state or statistics divergence is a crash. The
// committed corpus seeds are chosen (by scanning the generator) so every
// kernel contains both a divergent region (If/IfElse, where the core must
// fall back to per-instruction interpretation and the divergence stack) and
// a straight ALU run of three or more statements (where the uniform-warp
// fast path and block dispatch engage) — the boundary between the two is
// where predecode bugs live.
func FuzzPredecode(f *testing.F) {
	for _, seed := range []uint64{18, 20, 26, 27, 32, 33, 34, 42, 46, 51, 63, 97, 100, 114} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := Generate(seed, FuzzSize())
		fuzzMu.Lock()
		defer fuzzMu.Unlock()
		res, err := predecodeOracle.Run(p)
		if err != nil {
			t.Fatalf("harness error for seed %d: %v", seed, err)
		}
		if res.Failed() {
			min := Shrink(p, func(q *Prog) bool {
				r, qerr := predecodeOracle.Run(q)
				return qerr == nil && r.Failed()
			})
			repro, rerr := Repro(min, res.Failures[0].String())
			if rerr != nil {
				repro = rerr.Error()
			}
			t.Fatalf("seed %d diverged on the execution axis: %s\nminimized repro:\n%s",
				seed, res.Failures[0], repro)
		}
	})
}

// predecodeOracle runs with an empty tool list, so Run covers exactly the
// execution axis (base/ref-seq vs base/ref-par and base/core-*) at four
// launches per kernel — several times more kernels per second than the full
// instrumentation matrix.
var predecodeOracle = NewOracle([]Tool{})
