package pcsamp_test

// Golden-file pins for the two export formats on a real workload
// (parboil.sgemm on the mini device). Sampling is deterministic, the
// exporters are byte-deterministic, so the files must match exactly;
// regenerate deliberately with:
//
//	go test ./internal/obs/pcsamp -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/ptxas"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

func sgemmProfile(t *testing.T) *pcsamp.Profile {
	t.Helper()
	spec, ok := workloads.Get("parboil.sgemm")
	if !ok {
		t.Fatal("parboil.sgemm not registered")
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	s := pcsamp.New(pcsamp.DefaultPeriod)
	ctx.Device().PCSamp = s
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	return s.Profile()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d bytes vs %d); inspect and rerun with -update if intended",
			name, len(got), len(want))
	}
}

func TestGoldenFolded(t *testing.T) {
	var b bytes.Buffer
	if err := sgemmProfile(t).WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sgemm_folded.txt", b.Bytes())
}

func TestGoldenProto(t *testing.T) {
	checkGolden(t, "sgemm_profile.pb", sgemmProfile(t).Proto())
}

// TestPprofToolReadsProfile feeds the gzipped export to the real
// `go tool pprof` and requires it to symbolize the hottest frames —
// the compatibility claim, checked against the actual consumer.
func TestPprofToolReadsProfile(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not on PATH")
	}
	if testing.Short() {
		t.Skip("skipping external pprof invocation in -short")
	}
	path := filepath.Join(t.TempDir(), "sgemm.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sgemmProfile(t).WritePprof(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=5", path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof failed: %v\n%s", err, out)
	}
	// The kernel root frame has zero flat time, so -top shows the
	// symbolized leaf frames (bbN:0xOFFS:OP) in the cycles unit.
	if !bytes.Contains(out, []byte("Type: cycles")) || !bytes.Contains(out, []byte("bb")) {
		t.Errorf("pprof -top did not symbolize leaf frames:\n%s", out)
	}
}
