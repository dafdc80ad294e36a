package pcsamp

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sassi/internal/obs"
	"sassi/internal/sass"
)

// testKernel builds a small straight-line kernel for symbolization.
func testKernel(t *testing.T, name string) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{Name: name, NumRegs: 8, Labels: map[string]int{}}
	k.Instrs = []sass.Instruction{
		sass.New(sass.OpMOV, []sass.Operand{sass.R(0)}, []sass.Operand{sass.Imm(1)}),
		sass.New(sass.OpIADD, []sass.Operand{sass.R(0)}, []sass.Operand{sass.R(0), sass.R(0)}),
		sass.New(sass.OpEXIT, nil, nil),
	}
	if err := k.ResolveLabels(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSampleCellSize(t *testing.T) {
	// The ring layout contract: one sample per 64-byte cell, so adjacent
	// cells never share a cache line across SM writers.
	if got := unsafe.Sizeof(Sample{}); got != 64 {
		t.Errorf("Sample size = %d bytes, want 64", got)
	}
}

// TestRecordFoldsOnFullRing drives more samples than the ring holds and
// checks nothing is lost across the implicit folds.
func TestRecordFoldsOnFullRing(t *testing.T) {
	s := NewWithRing(1, 8)
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 1)
	const n = 100
	for i := 0; i < n; i++ {
		ls.SMs[0].Record(int32(i%3), 32, ReasonNone, 2, nil)
	}
	s.LaunchEnd(ls)
	prof := s.Profile()
	if got := prof.TotalSamples(); got != 2*n {
		t.Errorf("TotalSamples = %d, want %d", got, 2*n)
	}
	if len(prof.Locs) != 3 {
		t.Errorf("distinct locations = %d, want 3", len(prof.Locs))
	}
	for l, c := range prof.Locs {
		if want := uint64(2 * n / 3 * 32); c.Lanes-uint64(2*32) > want {
			t.Errorf("loc %v lanes = %d, implausible", l, c.Lanes)
		}
	}
}

// TestStackTruncation checks deep stacks keep the innermost frames and are
// counted.
func TestStackTruncation(t *testing.T) {
	s := NewWithRing(1, 8)
	k := testKernel(t, "deep")
	ls := s.LaunchBegin(k, 1)
	stack := make([]int, MaxStack+4)
	for i := range stack {
		stack[i] = i + 1
	}
	ls.SMs[0].Record(0, 32, ReasonNone, 1, stack)
	s.LaunchEnd(ls)
	prof := s.Profile()
	if prof.TruncatedStacks != 1 {
		t.Errorf("TruncatedStacks = %d, want 1", prof.TruncatedStacks)
	}
	for l := range prof.Locs {
		if l.Depth != MaxStack {
			t.Errorf("Depth = %d, want %d", l.Depth, MaxStack)
		}
		// Innermost frames survive: the last stack entry is the deepest.
		if got, want := l.Stack[MaxStack-1], int32(stack[len(stack)-1]); got != want {
			t.Errorf("innermost frame = %d, want %d", got, want)
		}
		if got, want := l.Stack[0], int32(stack[4]); got != want {
			t.Errorf("outermost kept frame = %d, want %d", got, want)
		}
	}
}

// TestPooledReuseIsClean checks a second launch reusing pooled buffers
// starts from zero.
func TestPooledReuseIsClean(t *testing.T) {
	s := NewWithRing(1, 8)
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 2)
	ls.SMs[0].Record(0, 32, ReasonNone, 5, nil)
	ls.SMs[1].Record(1, 32, ReasonMemory, 7, nil)
	s.LaunchEnd(ls)
	ls2 := s.LaunchBegin(k, 2)
	if ls2 != ls {
		t.Fatal("expected pooled LaunchSamples reuse for matching SM count")
	}
	ls2.SMs[0].Record(0, 32, ReasonNone, 1, nil)
	s.LaunchEnd(ls2)
	prof := s.Profile()
	if got := prof.TotalSamples(); got != 5+7+1 {
		t.Errorf("TotalSamples = %d, want 13 (reused buffers must start clean)", got)
	}
	if prof.Launches != 2 {
		t.Errorf("Launches = %d, want 2", prof.Launches)
	}
}

// TestMergeOrderIndependence folds the same two launches in both orders
// and requires bit-identical profiles — the property that makes sequential
// and concurrent engines agree.
func TestMergeOrderIndependence(t *testing.T) {
	build := func(order []int) *Profile {
		s := NewWithRing(1, 8)
		k := testKernel(t, "spin")
		a := s.LaunchBegin(k, 1)
		a.SMs[0].Record(0, 32, ReasonNone, 3, nil)
		a.SMs[0].Record(1, 16, ReasonScoreboard, 2, []int{2})
		b := s.LaunchBegin(k, 1)
		b.SMs[0].Record(1, 16, ReasonScoreboard, 4, []int{2})
		b.SMs[0].Record(2, 8, ReasonMemory, 1, nil)
		both := []*LaunchSamples{a, b}
		for _, i := range order {
			s.LaunchEnd(both[i])
		}
		return s.Profile()
	}
	p1, p2 := build([]int{0, 1}), build([]int{1, 0})
	if !bytes.Equal(p1.proto(), p2.proto()) {
		t.Error("profiles differ under launch completion order")
	}
}

func TestCloneSub(t *testing.T) {
	s := NewWithRing(1, 8)
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 1)
	ls.SMs[0].Record(0, 32, ReasonNone, 10, nil)
	s.LaunchEnd(ls)
	base := s.Profile()
	ls = s.LaunchBegin(k, 1)
	ls.SMs[0].Record(0, 32, ReasonNone, 4, nil)
	ls.SMs[0].Record(1, 32, ReasonMemory, 6, nil)
	s.LaunchEnd(ls)
	delta := s.Profile().Sub(base)
	if got := delta.TotalSamples(); got != 10 {
		t.Errorf("delta TotalSamples = %d, want 10", got)
	}
	if delta.Launches != 1 {
		t.Errorf("delta Launches = %d, want 1", delta.Launches)
	}
	// The unchanged part of the base must have been dropped entirely when
	// zero, never negative.
	if got := delta.Sub(delta).TotalSamples(); got != 0 {
		t.Errorf("self-subtraction leaves %d samples, want 0", got)
	}
	// Mutating the clone must not affect the sampler's internal profile.
	for l := range base.Locs {
		delete(base.Locs, l)
	}
	if got := s.Profile().TotalSamples(); got != 20 {
		t.Errorf("sampler profile corrupted by clone mutation: %d samples, want 20", got)
	}
}

func TestWaitLaunches(t *testing.T) {
	s := NewWithRing(1, 8)
	k := testKernel(t, "spin")
	if s.WaitLaunches(1, 20*time.Millisecond) {
		t.Error("WaitLaunches reported success with no launches")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.LaunchEnd(s.LaunchBegin(k, 1))
	}()
	if !s.WaitLaunches(1, 5*time.Second) {
		t.Error("WaitLaunches timed out despite a completing launch")
	}
}

func TestLaunchEndPublishesMetrics(t *testing.T) {
	s := NewWithRing(1, 8)
	s.Metrics = obs.NewRegistry()
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 1)
	ls.SMs[0].Record(0, 32, ReasonNone, 3, nil)
	s.LaunchEnd(ls)
	flat := s.Metrics.Flat("sm")
	if flat[obs.MPCSampSamples] != 3 {
		t.Errorf("%s = %d, want 3", obs.MPCSampSamples, flat[obs.MPCSampSamples])
	}
	if flat[obs.MPCSampLaunches] != 1 {
		t.Errorf("%s = %d, want 1", obs.MPCSampLaunches, flat[obs.MPCSampLaunches])
	}
}

func TestWriteFolded(t *testing.T) {
	s := NewWithRing(1, 8)
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 1)
	ls.SMs[0].Record(1, 32, ReasonScoreboard, 5, nil)
	ls.SMs[0].Record(0, 32, ReasonNone, 2, nil)
	s.LaunchEnd(ls)
	var b strings.Builder
	if err := s.Profile().WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("folded lines = %d, want 2:\n%s", len(lines), b.String())
	}
	// Sorted output, root frame is the kernel, stalled location grows a
	// stall frame, counts are period-weighted samples.
	for _, l := range lines {
		if !strings.HasPrefix(l, "spin;") {
			t.Errorf("line %q does not start with the kernel frame", l)
		}
	}
	var sawStall bool
	for _, l := range lines {
		if strings.Contains(l, ";stall:scoreboard ") && strings.HasSuffix(l, " 5") {
			sawStall = true
		}
		if f := strings.Fields(l); len(f) != 2 {
			t.Errorf("line %q has embedded spaces in frames", l)
		}
	}
	if !sawStall {
		t.Errorf("no stall:scoreboard frame with count 5 in:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "IADD") {
		t.Errorf("leaf frame lost the opcode:\n%s", b.String())
	}
}

// protoFields walks the top-level fields of an encoded proto message.
func protoFields(t *testing.T, b []byte) map[int][][]byte {
	t.Helper()
	out := map[int][][]byte{}
	for len(b) > 0 {
		key, n := uvarint(b)
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			b = b[n:]
			var enc [10]byte
			m := putUvarint(enc[:], v)
			out[field] = append(out[field], append([]byte(nil), enc[:m]...))
		case 2:
			l, n := uvarint(b)
			b = b[n:]
			out[field] = append(out[field], append([]byte(nil), b[:l]...))
			b = b[l:]
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
	return out
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; ; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
}

func putUvarint(b []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	return i + 1
}

// TestProtoShape decodes the top level of the profile.proto output and
// checks the invariants pprof relies on.
func TestProtoShape(t *testing.T) {
	s := NewWithRing(100, 8)
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 1)
	ls.SMs[0].Record(0, 32, ReasonNone, 2, nil)
	ls.SMs[0].Record(1, 32, ReasonMemory, 3, nil)
	s.LaunchEnd(ls)
	prof := s.Profile()
	fields := protoFields(t, prof.proto())
	if n := len(fields[1]); n != 2 {
		t.Errorf("sample_type count = %d, want 2 (samples, cycles)", n)
	}
	if n := len(fields[2]); n != 2 {
		t.Errorf("sample count = %d, want 2", n)
	}
	if n := len(fields[3]); n != 1 {
		t.Errorf("mapping count = %d, want 1", n)
	}
	if len(fields[4]) == 0 || len(fields[5]) == 0 {
		t.Error("missing locations or functions")
	}
	var strs []string
	for _, b := range fields[6] {
		strs = append(strs, string(b))
	}
	if strs[0] != "" {
		t.Errorf("string table index 0 = %q, want empty", strs[0])
	}
	joined := strings.Join(strs, "\x00")
	for _, want := range []string{"spin", "cycles", "samples", "reason", "memory", "[sassi-sim]"} {
		if !strings.Contains(joined, want) {
			t.Errorf("string table missing %q", want)
		}
	}
	if len(fields[12]) == 0 {
		t.Error("missing period")
	} else if v, _ := uvarint(fields[12][0]); v != 100 {
		t.Errorf("period = %d, want 100", v)
	}
	// Deterministic bytes: re-encoding an identical profile matches.
	if !bytes.Equal(prof.proto(), s.Profile().proto()) {
		t.Error("proto encoding is not deterministic")
	}
}

func TestProfileHandler(t *testing.T) {
	var nilSampler *Sampler
	rec := httptest.NewRecorder()
	nilSampler.ProfileHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sassiprof/profile", nil))
	if rec.Code != 404 {
		t.Errorf("nil sampler status = %d, want 404", rec.Code)
	}

	s := NewWithRing(1, 8)
	k := testKernel(t, "spin")
	ls := s.LaunchBegin(k, 1)
	ls.SMs[0].Record(0, 32, ReasonNone, 2, nil)
	s.LaunchEnd(ls)

	rec = httptest.NewRecorder()
	s.ProfileHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profile?format=folded", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "spin;") {
		t.Errorf("folded response = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ProfileHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profile", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof response status = %d", rec.Code)
	}
	gz, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatalf("pprof response is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	var prof Profile
	prof.Period = 1
	if fields := protoFields(t, raw); len(fields[2]) != 1 {
		t.Errorf("pprof response sample count = %d, want 1", len(fields[2]))
	}

	rec = httptest.NewRecorder()
	s.ProfileHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profile?format=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bogus format status = %d, want 400", rec.Code)
	}

	// A bad format is refused before the wait for launches, which on this
	// sampler would run out the default 30 s bound: no launch comes.
	start := time.Now()
	rec = httptest.NewRecorder()
	s.ProfileHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profile?launches=1&format=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("launches=1&format=bogus status = %d, want 400", rec.Code)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("launches=1&format=bogus answered after %v: it waited for launches first", d)
	}

	// A wait bound that is not a positive, representable duration is
	// refused before any wait: each of these once became a negative
	// time.Duration and served an empty delta at once.
	for _, secs := range []string{"0", "-1", "x", "NaN", "Inf", "-Inf", "1e300", "1e10"} {
		rec = httptest.NewRecorder()
		s.ProfileHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profile?launches=1&format=folded&seconds="+secs, nil))
		if rec.Code != 400 {
			t.Errorf("seconds=%s status = %d, want 400", secs, rec.Code)
		}
	}

	// launches=N with a short timeout serves the partial (empty) delta.
	rec = httptest.NewRecorder()
	s.ProfileHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profile?launches=1&seconds=0.01&format=folded", nil))
	if rec.Code != 200 {
		t.Errorf("delta timeout status = %d, want 200 (best-effort partial)", rec.Code)
	}
	if body := strings.TrimSpace(rec.Body.String()); body != "" {
		t.Errorf("delta with no new launches = %q, want empty", body)
	}
}
