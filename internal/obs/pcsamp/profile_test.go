package pcsamp

// Accessor and symbolization coverage: the profile's aggregate views, the
// call-frame naming rules, and the gzipped pprof writer.

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"sassi/internal/sass"
)

func TestProfileAccessors(t *testing.T) {
	s := NewWithRing(10, 8)
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 1)
	ls.SMs[0].Record(0, 32, ReasonNone, 2, nil)
	ls.SMs[0].Record(1, 16, ReasonMemory, 3, nil)
	s.LaunchEnd(ls)
	if got := s.Launches(); got != 1 {
		t.Errorf("Sampler.Launches = %d, want 1", got)
	}
	prof := s.Profile()
	if got := prof.Cycles(); got != 50 {
		t.Errorf("Cycles = %d, want 50 (5 samples x period 10)", got)
	}
	pcs := prof.PCCycles()
	if pcs[PCKey{"spin", 0}] != 20 || pcs[PCKey{"spin", 1}] != 30 {
		t.Errorf("PCCycles = %v, want spin:0=20 spin:1=30", pcs)
	}
	var stalls [NumReasons]uint64
	for l, c := range prof.Locs {
		stalls[l.Reason] += c.Samples * prof.Period
	}
	if stalls[ReasonNone] != 20 || stalls[ReasonMemory] != 30 {
		t.Errorf("cycles by stall reason = %v, want none=20 memory=30", stalls)
	}
}

// callKernel builds a kernel with a CAL so return addresses symbolize to
// the callee's label.
func callKernel(t *testing.T) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{Name: "caller", NumRegs: 8, Labels: map[string]int{}}
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpCAL, nil, []sass.Operand{sass.Label("fn")}),
		sass.New(sass.OpEXIT, nil, nil),
		sass.New(sass.OpMOV, []sass.Operand{sass.R(0)}, []sass.Operand{sass.Imm(1)}), // fn:
		sass.New(sass.OpRET, nil, nil),
	}
	k.Labels["fn"] = 2
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCallStackSymbolization(t *testing.T) {
	s := NewWithRing(1, 8)
	k := callKernel(t)
	ls := s.LaunchBegin(k, 1)
	// Leaf inside fn with return address 1 (the instruction after the CAL):
	// the frame must be named after the callee label.
	ls.SMs[0].Record(2, 32, ReasonNone, 4, []int{1})
	// A return address whose predecessor is not a CAL degrades to ret_...
	ls.SMs[0].Record(2, 32, ReasonNone, 1, []int{3})
	s.LaunchEnd(ls)
	var b strings.Builder
	if err := s.Profile().WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "caller;fn;") {
		t.Errorf("CAL return address did not symbolize to the callee label:\n%s", out)
	}
	if !strings.Contains(out, ";ret_") {
		t.Errorf("non-CAL return address did not degrade to a ret_ frame:\n%s", out)
	}
}

// TestWritePprof round-trips the gzipped export and checks it contains the
// same message WriteProto emits.
func TestWritePprof(t *testing.T) {
	s := NewWithRing(1, 8)
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 1)
	ls.SMs[0].Record(0, 32, ReasonScoreboard, 7, nil)
	s.LaunchEnd(ls)
	prof := s.Profile()
	var gz bytes.Buffer
	if err := prof.WritePprof(&gz); err != nil {
		t.Fatal(err)
	}
	r, err := gzip.NewReader(&gz)
	if err != nil {
		t.Fatalf("WritePprof output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, prof.proto()) {
		t.Error("gunzipped WritePprof bytes differ from the profile.proto encoding")
	}
}
