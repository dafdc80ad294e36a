package workloads_test

import (
	"reflect"
	"testing"

	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// TestPredecodedBitEqualAllWorkloads is the default core's workload-level
// correctness gate: every registered workload must produce per-launch
// KernelStats bit-equal to the reference interpreter
// (Config.ReferenceInterpreter, sequential SMs), and pass its own output
// verification, on the default core in both SM-dispatch modes. Stats
// equality covers the timing model (cycles, per-SM cycles, scoreboard
// stalls, transaction counts) on top of the value correctness the verifier
// checks; register-file and memory bit-equality is covered per generated
// kernel by the difftest execution axis.
func TestPredecodedBitEqualAllWorkloads(t *testing.T) {
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			ref := sim.MiniGPU()
			ref.ReferenceInterpreter = true
			ref.SequentialSMs = true
			want := collectStats(t, spec.Name, "default", ref)

			cfg := sim.MiniGPU()
			cfg.SequentialSMs = true
			got := collectStats(t, spec.Name, "default", cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("default-core stats diverge from the reference interpreter:\n got %+v\nwant %+v",
					got, want)
			}

			// Concurrent-SM dispatch: only schedule-invariant workloads can
			// be compared bit-for-bit. A workload with cross-SM atomics
			// (e.g. parboil.bfs's frontier queue) legitimately depends on
			// SM interleaving, so the reference interpreter itself diverges
			// from its sequential run there; comparing the default core
			// against either would test the race, not the core.
			ref.SequentialSMs = false
			if refPar := collectStats(t, spec.Name, "default", ref); !reflect.DeepEqual(refPar, want) {
				t.Logf("skipping concurrent-dispatch comparison: workload is schedule-dependent")
				return
			}
			cfg.SequentialSMs = false
			got = collectStats(t, spec.Name, "default", cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("default-core (concurrent SMs) stats diverge from the reference interpreter:\n got %+v\nwant %+v",
					got, want)
			}
		})
	}
}
