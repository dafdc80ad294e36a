package workloads_test

// The PC-sampling determinism gate: the profile collected by the
// concurrent-SM engine must be bit-identical to the sequential engine's —
// same locations, same weights, same reasons, same serialized pprof bytes.
// Sampling cadence is per-SM modeled cycles and the launch-end merge is
// commutative, so goroutine interleaving must never show through.
//
// The contract is "sampling adds no nondeterminism beyond the
// simulation's own": a workload whose KernelStats already differ between
// the engines (cross-SM atomic ordering feeding control flow, e.g.
// parboil.bfs's frontier queue) is skipped with that evidence, and any
// workload with bit-equal stats but divergent profiles fails.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/ptxas"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// sampledRun runs a workload on its default dataset with a fresh sampler,
// returning the serialized profile and the per-launch stats.
func sampledRun(t *testing.T, spec *workloads.Spec, cfg sim.Config, period uint64) ([]byte, []sim.KernelStats) {
	t.Helper()
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(cfg)
	s := pcsamp.New(period)
	ctx.Device().PCSamp = s
	var stats []sim.KernelStats
	ctx.Subscribe(cuda.LaunchCallbacks{
		PostLaunch: func(kernel string, idx int, ks *sim.KernelStats, err error) {
			if err == nil && ks != nil {
				stats = append(stats, *ks)
			}
		},
	})
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	var b bytes.Buffer
	if err := s.Profile().WritePprof(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), stats
}

// TestPCSampParallelBitEqual checks sequential-vs-concurrent profile
// equality on every non-mutant workload (the short gate subset under
// -short), plus run-to-run stability of the concurrent engine.
func TestPCSampParallelBitEqual(t *testing.T) {
	for _, spec := range workloads.All() {
		if strings.HasPrefix(spec.Name, "mutant.") {
			continue
		}
		if testing.Short() && !shortGateSet[spec.Name] {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			seq := sim.MiniGPU()
			seq.SequentialSMs = true
			want, seqStats := sampledRun(t, spec, seq, pcsamp.DefaultPeriod)
			if len(want) == 0 {
				t.Fatal("sequential profile is empty")
			}
			par := sim.MiniGPU()
			par.SequentialSMs = false
			for i := 0; i < 2; i++ {
				got, parStats := sampledRun(t, spec, par, pcsamp.DefaultPeriod)
				if !reflect.DeepEqual(parStats, seqStats) {
					t.Skipf("simulation itself is engine-order-dependent (stats differ); profile equality not applicable")
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("parallel run %d profile diverges from sequential (%d vs %d bytes) despite bit-equal stats",
						i, len(got), len(want))
				}
			}
		})
	}
}
