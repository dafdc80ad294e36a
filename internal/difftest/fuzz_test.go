package difftest

import (
	"sync"
	"testing"

	"sassi/internal/sim"
)

// fuzzOracle is shared across fuzz iterations in one process so the
// compile cache persists; Oracle.Run is single-goroutine, hence the lock.
var (
	fuzzMu     sync.Mutex
	fuzzOracle = NewOracle(nil, sim.MiniGPU())
)

// FuzzDifferential feeds generator seeds to the full oracle matrix: any
// input that produces a kernel whose instrumented or parallel execution
// diverges from the sequential uninstrumented reference is a crash.
// Kernels use the reduced FuzzSize envelope for throughput; the committed
// corpus under testdata/fuzz pins seeds that exercise every statement
// class (the nightly workflow runs this target for minutes, CI for
// seconds).
func FuzzDifferential(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 7, 42, 1234, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := Generate(seed, FuzzSize())
		fuzzMu.Lock()
		defer fuzzMu.Unlock()
		res, err := fuzzOracle.Run(p)
		if err != nil {
			t.Fatalf("harness error for seed %d: %v", seed, err)
		}
		if res.Failed() {
			min := Shrink(p, func(q *Prog) bool {
				r, qerr := fuzzOracle.Run(q)
				return qerr == nil && r.Failed()
			})
			repro, rerr := Repro(min, res.Failures[0].String())
			if rerr != nil {
				repro = rerr.Error()
			}
			t.Fatalf("seed %d diverged: %s\nminimized repro:\n%s",
				seed, res.Failures[0], repro)
		}
	})
}
