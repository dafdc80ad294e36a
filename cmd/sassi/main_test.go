package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/handlers"
	"sassi/internal/obs"
	"sassi/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// statsRun runs
//
//	sassi -workload demo.vecadd -tool branch -gpu mini -stats-json FILE
//
// and returns the serialized stats bytes.
func statsRun(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stats.json")
	var out, errb bytes.Buffer
	args := []string{"-workload", "demo.vecadd", "-tool", "branch", "-gpu", "mini", "-stats-json", path}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStatsJSONGolden pins the -stats-json byte format — field order, sorted
// metric keys, and the metric values of a fixed deterministic run — against
// testdata/stats_golden.json. Regenerate with `go test ./cmd/sassi -update`
// after an intentional schema change (and bump obs.StatsSchema).
func TestStatsJSONGolden(t *testing.T) {
	got := statsRun(t)
	golden := filepath.Join("testdata", "stats_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stats JSON differs from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestStatsJSONDeterministic asserts two identical runs serialize to
// identical bytes — the property the golden file depends on.
func TestStatsJSONDeterministic(t *testing.T) {
	a := statsRun(t)
	b := statsRun(t)
	if !bytes.Equal(a, b) {
		t.Errorf("two identical runs produced different stats bytes\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestStatsJSONShape decodes the golden run output and checks the invariants
// scripts rely on: schema tag, top-level key order, and presence of the core
// metric families.
func TestStatsJSONShape(t *testing.T) {
	raw := statsRun(t)
	var s obs.Stats
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if s.Schema != obs.StatsSchema {
		t.Errorf("schema = %q, want %q", s.Schema, obs.StatsSchema)
	}
	if !s.Verified || s.Launches == 0 || s.WarpInstrs == 0 || s.HandlerCalls == 0 {
		t.Errorf("core counters missing: %+v", s)
	}
	for _, name := range []string{
		obs.MSimWarpInstrs,
		obs.MSimWarpInstrs + ".sm0",
		obs.MSassiSites,
		obs.MSassiInjectedInstrs,
		obs.MSassiSaveRestoreInstrs,
		obs.MHandlerDispatchPrefix + "sassi_branch_handler",
	} {
		if _, ok := s.Metrics[name]; !ok {
			t.Errorf("metrics missing %q", name)
		}
	}
	// Raw key order must be sorted: decode into a raw message keyed walk.
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["metrics"]; !ok {
		t.Error("missing metrics object")
	}
}

// sassiRun runs the command with args and returns its exit code and output.
func sassiRun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// mutants returns the seed-buggy mutants whose name does (cfi) or does not
// start with mutant.cfi-.
func mutants(cfi bool) []string {
	var out []string
	for _, name := range workloads.MutantNames() {
		if strings.HasPrefix(name, "mutant.cfi-") == cfi {
			out = append(out, name)
		}
	}
	return out
}

// TestCFIMutantsRejected: -tool cfi rejects every control-flow mutant: exit
// 1 with the checker's violations printed, load-time and at run time, even
// where the corrupt control flow faults the run.
func TestCFIMutantsRejected(t *testing.T) {
	for _, name := range mutants(true) {
		t.Run(name, func(t *testing.T) {
			code, out, errs := sassiRun("-tool", "cfi", "-gpu", "mini", "-workload", name)
			if code != 1 {
				t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errs)
			}
			if !strings.Contains(out, "cfi static: ") {
				t.Errorf("no load-time violation:\n%s", out)
			}
			if strings.Contains(out, "cfi: 0 violation(s)") {
				t.Errorf("violation count is zero:\n%s", out)
			}
		})
	}
}

// TestCFICleanWorkloads: the call-tree demo and a compiled built-in run
// under -tool cfi with no violation, and verify.
func TestCFICleanWorkloads(t *testing.T) {
	for _, name := range []string{"demo.calltree", "demo.vecadd"} {
		code, out, errs := sassiRun("-tool", "cfi", "-gpu", "mini", "-workload", name)
		if code != 0 {
			t.Fatalf("%s: exit %d, want 0\nstdout: %s\nstderr: %s", name, code, out, errs)
		}
		if !strings.Contains(out, "verification: PASSED") || !strings.Contains(out, "cfi: 0 violation(s)") {
			t.Errorf("%s: missing clean verdict:\n%s", name, out)
		}
	}
}

// TestRacecheckMutants: -tool racecheck confirms the seeded race of every
// shared-memory mutant: exit 1 with the raced site pairs printed.
func TestRacecheckMutants(t *testing.T) {
	for _, name := range mutants(false) {
		t.Run(name, func(t *testing.T) {
			code, out, errs := sassiRun("-tool", "racecheck", "-gpu", "mini", "-workload", name)
			if code != 1 {
				t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errs)
			}
			if !strings.Contains(out, " raced (same CTA") {
				t.Errorf("no race printed:\n%s", out)
			}
		})
	}
}

// TestRacecheckCleanWorkload: a properly-barriered built-in runs under
// -tool racecheck with no race.
func TestRacecheckCleanWorkload(t *testing.T) {
	code, out, errs := sassiRun("-tool", "racecheck", "-gpu", "mini", "-workload", "parboil.sgemm", "-dataset", "small")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out, errs)
	}
	if !strings.Contains(out, "racecheck: 0 race(s)") {
		t.Errorf("missing clean verdict:\n%s", out)
	}
}

// TestCFIUsage: under -tool cfi, unknown workloads and datasets are usage
// errors, and -list names the CFI workload and mutants.
func TestCFIUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-tool", "cfi", "-workload", "no.such.workload"},
		{"-tool", "cfi", "-workload", ""},
		{"-tool", "cfi", "-workload", "mutant.cfi-ret-nocall", "-dataset", "no-such-dataset"},
	} {
		if code, _, _ := sassiRun(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	code, out, _ := sassiRun("-list")
	if code != 0 {
		t.Errorf("-list: exit %d, want 0", code)
	}
	for _, name := range append([]string{"demo.calltree"}, mutants(true)...) {
		if !strings.Contains(out, name+" ") {
			t.Errorf("-list output missing %s", name)
		}
	}
}

// TestRacecheckUsage: under -tool racecheck, unknown workloads and datasets
// are usage errors, and -list names every race mutant.
func TestRacecheckUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-tool", "racecheck", "-workload", "no.such.workload"},
		{"-tool", "racecheck", "-workload", ""},
		{"-tool", "racecheck", "-workload", "mutant.sgemm-nobar", "-dataset", "no-such-dataset"},
	} {
		if code, _, _ := sassiRun(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	code, out, _ := sassiRun("-list")
	if code != 0 {
		t.Errorf("-list: exit %d, want 0", code)
	}
	race := mutants(false)
	if len(race) == 0 {
		t.Fatal("no race mutants registered")
	}
	for _, name := range race {
		if !strings.Contains(out, name+" ") {
			t.Errorf("-list output missing %s", name)
		}
	}
}

// TestUsage: unknown workloads, tools and flags are usage errors, and -list
// names every workload and every mutant.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no.such.workload"},
		{"-workload", "demo.vecadd", "-tool", "no-such-tool"},
		{"-workload", "demo.vecadd", "-dataset", "no-such-dataset"},
		{"-no-such-flag"},
	} {
		if code, _, _ := sassiRun(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	code, out, _ := sassiRun("-list")
	if code != 0 {
		t.Errorf("-list: exit %d, want 0", code)
	}
	for _, name := range append(workloads.Names(), workloads.MutantNames()...) {
		if !strings.Contains(out, name+" ") {
			t.Errorf("-list output missing %s", name)
		}
	}
}

// TestToolNames: -tool takes exactly the names of handlers.Tools (and
// none): each runs demo.vecadd to a verified result, and any other name,
// the old valueprof included, is a usage error.
func TestToolNames(t *testing.T) {
	for _, name := range append([]string{"none"}, handlers.ToolNames()...) {
		code, out, errs := sassiRun("-tool", name, "-gpu", "mini", "-workload", "demo.vecadd")
		if code != 0 || !strings.Contains(out, "verification: PASSED") {
			t.Errorf("-tool %s: exit %d\nstdout: %s\nstderr: %s", name, code, out, errs)
		}
	}
	for _, name := range []string{"valueprof", "all", "", "Branch", "branch,memdiv"} {
		if code, _, errs := sassiRun("-tool", name, "-workload", "demo.vecadd"); code != 2 || !strings.Contains(errs, "unknown tool") {
			t.Errorf("-tool %q: exit %d, want 2; stderr: %s", name, code, errs)
		}
	}
}

// TestPTXGeometryUsage: a -ptx run refuses a grid, block or buffer size
// below one as a usage error naming the flag, rather than running a
// geometry nobody asked for or failing to allocate the buffer.
func TestPTXGeometryUsage(t *testing.T) {
	sptx := filepath.Join("..", "..", "examples", "ptxasm", "squares.sptx")
	for _, bad := range [][2]string{
		{"-bufwords", "-1"}, {"-bufwords", "0"},
		{"-grid", "0"}, {"-grid", "-3"},
		{"-block", "-5"}, {"-block", "0"},
	} {
		code, _, stderr := sassiRun("-ptx", sptx, bad[0], bad[1])
		if code != 2 || !strings.Contains(stderr, bad[0]) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 2 naming the flag", bad[0], bad[1], code, stderr)
		}
	}
	if code, _, stderr := sassiRun("-ptx", sptx, "-grid", "1", "-block", "1", "-bufwords", "1"); code != 0 {
		t.Errorf("one CTA of one thread with a one-word buffer: exit %d\n%s", code, stderr)
	}
}
