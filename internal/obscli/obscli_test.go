package obscli

// End-to-end check of the shared CLI wiring: the flags must imply exactly
// the right set of live observability objects (nil = free when off), and
// Finish must materialize every requested output file.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

func TestRegisterDefaults(t *testing.T) {
	f := Register(flag.NewFlagSet("t", flag.ContinueOnError))
	if f.Enabled() {
		t.Error("Enabled() true with no flags set")
	}
	if f.SamplingEnabled() {
		t.Error("SamplingEnabled() true with no flags set")
	}
	if f.PCSampPeriod != pcsamp.DefaultPeriod {
		t.Errorf("default period = %d, want %d", f.PCSampPeriod, pcsamp.DefaultPeriod)
	}
}

func TestEnabledCombinations(t *testing.T) {
	for _, tc := range []struct {
		f        Flags
		enabled  bool
		sampling bool
	}{
		{Flags{}, false, false},
		{Flags{TraceOut: "x"}, true, false},
		{Flags{StatsOut: "-"}, true, false},
		{Flags{HTTPAddr: ":0"}, true, true}, // http serves continuous profiles
		{Flags{PCSampOut: "x"}, false, true},
		{Flags{PCSampPprof: "x"}, false, true},
	} {
		if got := tc.f.Enabled(); got != tc.enabled {
			t.Errorf("%+v Enabled() = %v, want %v", tc.f, got, tc.enabled)
		}
		if got := tc.f.SamplingEnabled(); got != tc.sampling {
			t.Errorf("%+v SamplingEnabled() = %v, want %v", tc.f, got, tc.sampling)
		}
	}
}

func TestSetupAllOff(t *testing.T) {
	f := &Flags{PCSampPeriod: pcsamp.DefaultPeriod}
	reg, tr, samp := f.Setup(nil)
	if reg != nil || tr != nil || samp != nil {
		t.Errorf("Setup with no flags = (%v, %v, %v), want all nil", reg, tr, samp)
	}
	// Finish with everything off (and nil objects) must be a clean no-op.
	if err := f.Finish(tr, nil, samp); err != nil {
		t.Errorf("Finish with all outputs off: %v", err)
	}
}

// TestSetupFinishEndToEnd drives a real launch through the objects Setup
// returns and checks every output file Finish writes.
func TestSetupFinishEndToEnd(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		TraceOut:     filepath.Join(dir, "trace.json"),
		StatsOut:     filepath.Join(dir, "stats.json"),
		PCSampOut:    filepath.Join(dir, "prof.folded"),
		PCSampPprof:  filepath.Join(dir, "prof.pb.gz"),
		PCSampPeriod: 1,
	}
	reg, tr, samp := f.Setup(nil)
	if reg == nil || tr == nil || samp == nil {
		t.Fatalf("Setup = (%v, %v, %v), want all live", reg, tr, samp)
	}
	if samp.Metrics != reg {
		t.Error("sampler not wired to the registry")
	}

	k := &sass.Kernel{Name: "spin", NumRegs: 8, Labels: map[string]int{}}
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(0)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	prog := sass.NewProgram()
	prog.AddKernel(k)
	dev := sim.NewDevice(sim.MiniGPU())
	dev.Metrics = reg
	dev.Trace = tr
	dev.PCSamp = samp
	if _, err := dev.Launch(prog, "spin", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32),
	}); err != nil {
		t.Fatal(err)
	}

	if err := f.Finish(tr, obs.NewStats(reg), samp); err != nil {
		t.Fatal(err)
	}

	trace, err := os.ReadFile(f.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &tl); err != nil {
		t.Errorf("trace output is not Chrome trace JSON: %v", err)
	} else if len(tl.TraceEvents) == 0 {
		t.Error("trace output has no events")
	}
	statsRaw, err := os.ReadFile(f.StatsOut)
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(statsRaw, &stats); err != nil {
		t.Errorf("stats output is not JSON: %v", err)
	}
	folded, err := os.ReadFile(f.PCSampOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(folded), "spin;") {
		t.Errorf("folded profile missing the kernel frame:\n%s", folded)
	}
	pb, err := os.ReadFile(f.PCSampPprof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gzip.NewReader(bytes.NewReader(pb)); err != nil {
		t.Errorf("pprof output is not gzip: %v", err)
	}
}

// TestWriteToError checks the unwritable-path error propagates.
func TestWriteToError(t *testing.T) {
	f := &Flags{PCSampOut: filepath.Join(t.TempDir(), "no", "such", "dir", "p.folded")}
	if err := f.Finish(nil, nil, pcsamp.New(1)); err == nil {
		t.Error("Finish with unwritable -pcsamp path returned nil error")
	}
}

// TestGPUFlag: -gpu names the four device models and defaults to what the
// binary registers it with.
func TestGPUFlag(t *testing.T) {
	g := RegisterGPU(flag.NewFlagSet("t", flag.ContinueOnError), "k20")
	if g.Name != "k20" || g.Config().Name != sim.KeplerK20().Name {
		t.Errorf("default -gpu = %q (%s), want k20", g.Name, g.Config().Name)
	}
	for name, want := range map[string]sim.Config{
		"k10": sim.KeplerK10(), "k20": sim.KeplerK20(), "k40": sim.KeplerK40(), "mini": sim.MiniGPU(),
	} {
		if got, ok := gpuConfig(name); !ok || got != want {
			t.Errorf("gpuConfig(%q) = %+v, %v; want %+v", name, got, ok, want)
		}
	}
	if _, ok := gpuConfig("k80"); ok {
		t.Error("gpuConfig(k80) found a model")
	}
}

// TestGPUUnknownExits2: an unknown -gpu name ends the process with exit
// status 2 and names the model on stderr, in a child process.
func TestGPUUnknownExits2(t *testing.T) {
	if os.Getenv("OBSCLI_GPU_CHILD") != "" {
		(&GPU{Name: "k80"}).Config()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestGPUUnknownExits2$")
	cmd.Env = append(os.Environ(), "OBSCLI_GPU_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(stderr.String(), `unknown gpu "k80"`) {
		t.Errorf("child exited with %v, stderr %q; want status 2 naming the model", err, stderr.String())
	}
}
