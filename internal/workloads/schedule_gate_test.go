package workloads_test

import (
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/ptxas"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// shortGateSet is the representative subset run under -short (CI runs the
// full sweep explicitly).
var shortGateSet = map[string]bool{
	"parboil.sgemm": true, "parboil.bfs": true, "parboil.stencil": true,
}

// runOnce compiles (optionally scheduling) and runs a workload on its
// default dataset.
func runOnce(t *testing.T, spec *workloads.Spec, schedule bool) *workloads.Result {
	t.Helper()
	opts := ptxas.Options{Schedule: schedule}
	prog, err := spec.Compile(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScheduleBitEqual is the workload-level soundness gate for the
// instruction scheduler: every built-in workload, compiled with the
// post-RA list scheduler (which the `schedule` verifier check certifies
// inside Compile under go test), must produce bit-identical output and
// stdout to its unscheduled build, and still verify against its CPU
// reference. Deliberately-buggy mutants are excluded — their contract is
// to fail downstream checkers, not to verify.
func TestScheduleBitEqual(t *testing.T) {
	for _, spec := range workloads.All() {
		if strings.HasPrefix(spec.Name, "mutant.") {
			continue
		}
		if testing.Short() && !shortGateSet[spec.Name] {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			base := runOnce(t, spec, false)
			sched := runOnce(t, spec, true)
			if base.VerifyErr != nil {
				t.Fatalf("unscheduled run failed verify: %v", base.VerifyErr)
			}
			if sched.VerifyErr != nil {
				t.Fatalf("scheduled run failed verify: %v", sched.VerifyErr)
			}
			if len(base.Output) != len(sched.Output) {
				t.Fatalf("output size %d vs %d", len(base.Output), len(sched.Output))
			}
			for i := range base.Output {
				if base.Output[i] != sched.Output[i] {
					t.Fatalf("output byte %d differs: %#x vs %#x (bit-equality, not tolerance, is the schedule contract)",
						i, base.Output[i], sched.Output[i])
				}
			}
			if base.Stdout != sched.Stdout {
				t.Fatalf("stdout diverges:\n--- base ---\n%s\n--- sched ---\n%s",
					base.Stdout, sched.Stdout)
			}
		})
	}
}

// TestAuthoredFinishAllocatesNothing: the tail a SASS-authored program
// takes in Compile (ptxas.Finish, unscheduled and unverified, as the
// benchmark compiles it) allocates nothing: the output check only reads.
func TestAuthoredFinishAllocatesNothing(t *testing.T) {
	spec, _ := workloads.Get("demo.calltree")
	prog, err := spec.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	opts := ptxas.Options{Verify: analysis.VerifyOff}
	if n := testing.AllocsPerRun(10, func() {
		if err := ptxas.Finish(prog, opts); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ptxas.Finish allocated %.0f times per call", n)
	}
}
