package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/sass"
	"sassi/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestLintMutantsGolden pins the lint output over the seed-buggy mutants:
// the concurrency and control-stack checks must flag every mutant, in a
// deterministic order, with the exact rendered diagnostics the golden file
// records.
func TestLintMutantsGolden(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-checks", "barrier-divergence,shared-race,divergence,cfi", "-mutants"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (the CFI mutants are errors; stderr: %s)", code, errb.String())
	}
	if out.Len() == 0 {
		t.Fatal("no diagnostics printed for the seed-buggy mutants")
	}

	golden := filepath.Join("testdata", "mutants.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update ./cmd/sassi-lint` to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("lint output changed.\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}

// TestLintWorkloadsInstrumentGolden pins `sassi-lint -workloads -instrument`
// — every check over all 31 workloads, compiled and then instrumented at
// every site — to the output recorded before the value lattice was
// rebuilt. CI diffs the command's output against the same file.
func TestLintWorkloadsInstrumentGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workloads", "-instrument"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, errb.String())
	}
	golden := filepath.Join("testdata", "workloads_instrument.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update ./cmd/sassi-lint` to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("lint output changed.\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}

// TestLintWerror: -Werror turns the mutants' race warnings into a failing
// exit status, and the clean built-in suite stays green under the same
// gate — the exact command CI runs.
func TestLintWerror(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-Werror", "-checks", "shared-race", "-mutants"}, &out, &errb); code != 1 {
		t.Errorf("-Werror over mutants: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-Werror", "-checks", "barrier-divergence,shared-race", "-workloads"}, &out, &errb); code != 0 {
		t.Errorf("-Werror over built-ins: exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestLintUsage: no inputs is a usage error.
func TestLintUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no-arg run: exit %d, want 2", code)
	}
}

// TestLintChecksValidation pins the -checks contract: unknown check names
// are usage errors naming the known set, -list-checks enumerates it (cfi
// included), and the CFI mutants fail the lint under the cfi check.
func TestLintChecksValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", "no-such-check", "-workloads"}, &out, &errb); code != 2 {
		t.Errorf("unknown check: exit %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "cfi") {
		t.Errorf("unknown-check error does not name the known checks:\n%s", errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-list-checks"}, &out, &errb); code != 0 {
		t.Errorf("-list-checks: exit %d, want 0", code)
	}
	for _, c := range []string{"cfi", "barrier-divergence", "shared-race"} {
		if !strings.Contains(out.String(), c) {
			t.Errorf("-list-checks output missing %q:\n%s", c, out.String())
		}
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-checks", "cfi", "-mutants"}, &out, &errb); code != 1 {
		t.Errorf("cfi check over mutants: exit %d, want 1\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "cfi") {
		t.Errorf("no cfi diagnostics over the CFI mutants:\n%s", out.String())
	}

	// The clean built-in suite stays green under the cfi gate — the exact
	// command CI runs.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-Werror", "-checks", "cfi", "-workloads"}, &out, &errb); code != 0 {
		t.Errorf("-Werror -checks cfi over built-ins: exit %d, want 0\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
}

// TestLintOneMutant: -workload takes a mutant's name, and each mutant fails
// the static half of its checker on its own — the cfi check for the
// control-flow mutants, shared-race under -Werror for the others — while
// the call-tree demo passes the cfi check.
func TestLintOneMutant(t *testing.T) {
	for _, name := range workloads.MutantNames() {
		args := []string{"-Werror", "-checks", "shared-race", "-workload", name}
		if strings.HasPrefix(name, "mutant.cfi-") {
			args = []string{"-checks", "cfi", "-workload", name}
		}
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%v: exit %d, want 1\nstdout: %s\nstderr: %s", args, code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "mutant:"+name) {
			t.Errorf("%v: no diagnostic names the mutant:\n%s", args, out.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", "cfi", "-workload", "demo.calltree"}, &out, &errb); code != 0 {
		t.Errorf("cfi check on demo.calltree: exit %d, want 0\nstdout: %s", code, out.String())
	}
}

// TestLintShortOperandsFails: a decoded kernel whose IADD has one source,
// which the launch refuses, fails the lint with the launch's message as a
// structural error at that instruction.
func TestLintShortOperandsFails(t *testing.T) {
	k := &sass.Kernel{Name: "short", Instrs: []sass.Instruction{
		sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(3)}),
		sass.New(sass.OpEXIT, nil, nil),
	}}
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "short.sasskrn")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Errorf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if want := "short@0000: error: structural: IADD has 1 source operands, needs 2"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}
