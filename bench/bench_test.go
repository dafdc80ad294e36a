package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median / quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v, %v; want %v, %v, %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	d := newDist("s", []float64{3, 1, 2})
	if d.Value != 2 || d.Min != 1 || d.Max != 3 || d.N != 3 {
		t.Errorf("newDist = %+v", d)
	}
}

func TestSummary(t *testing.T) {
	var s summary
	for _, d := range []float64{1, 2, 3} {
		s.add(d, d/2, 10, 1)
	}
	if s.Count != 3 || s.TotalS != 6 || s.MinS != 1 || s.MeanS != 2 || s.SelfS != 3 || s.Bytes != 30 || s.Allocs != 3 {
		t.Errorf("summary = %+v", s)
	}
	if want := math.Sqrt(2.0 / 3.0); math.Abs(s.StddevS-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.StddevS, want)
	}
}

// TestSelfTimes checks self time = duration minus direct children on a hand
// built tree: root[0,100] { a[10,40] { a1[15,25] }, b[50,90] { b1[50,60], b2[70,85] } }.
func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	mk := func(name string, parent, start, end int) span {
		return span{Name: name, Parent: parent, Start: ms(start), End: ms(end)}
	}
	spans := []span{
		mk("root", -1, 0, 100),
		mk("x.a", 0, 10, 40),
		mk("x.a1", 1, 15, 25),
		mk("x.b", 0, 50, 90),
		mk("x.b1", 3, 50, 60),
		mk("x.b2", 3, 70, 85),
	}
	want := []int{30, 20, 10, 15, 10, 15}
	got := selfTimes(spans, 0)
	total := time.Duration(0)
	for i, w := range want {
		if got[i] != ms(w) {
			t.Errorf("self(%s) = %v, want %dms", spans[i].Name, got[i], w)
		}
		total += got[i]
	}
	if total != spans[0].dur() {
		t.Errorf("self times sum to %v, want the root's %v", total, spans[0].dur())
	}

	// The same tree as the second root of a recorder: parents are offset.
	r := &recorder{spans: append([]span{mk("earlier", -1, 0, 0)}, spans...)}
	for i := 1; i < len(r.spans); i++ {
		if r.spans[i].Parent >= 0 {
			r.spans[i].Parent++
		}
	}
	r.spans[4].Tag = "value"
	p := r.totals(1, len(r.spans))
	if p.Wall != 0.1 || p.Self["x.b"] != 0.015 || p.Total["x.b"] != 0.04 || p.Total["x.b@value"] != 0.04 || p.Self["root"] != 0.03 {
		t.Errorf("totals = %+v", p)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	root := r.begin("root")
	r.tag = "branch"
	r.do("x.outer", func() {
		r.do("x.inner", func() { r.count("n", 2) })
		r.count("n", 1)
	})
	r.end(root)
	if len(r.spans) != 3 || r.spans[1].Parent != 0 || r.spans[2].Parent != 1 {
		t.Fatalf("spans = %+v", r.spans)
	}
	p := r.totals(0, 3)
	if p.Counts["n"] != 3 || p.Counts["n@branch"] != 3 {
		t.Errorf("counts = %v", p.Counts)
	}
	if p.Total["x.inner"] > p.Total["x.outer"] || p.Total["x.outer"] > p.Wall {
		t.Errorf("durations do not nest: %v wall %v", p.Total, p.Wall)
	}
	// A nil recorder runs the same code and records nothing.
	var off *recorder
	ran := false
	off.do("x", func() { ran = true })
	off.count("n", 1)
	off.end(off.begin("y"))
	if !ran {
		t.Error("nil recorder did not run the function")
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.writeChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       float64
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) != 3 || tr.TraceEvents[2].Name != "x.inner" || tr.TraceEvents[2].Cat != "x" || tr.TraceEvents[2].Ph != "X" {
		t.Errorf("trace events = %+v", tr.TraceEvents)
	}
}

func opNames(w *workload) string {
	var names []string
	for _, o := range w.ops {
		names = append(names, o.name)
	}
	return strings.Join(names, " ")
}

// TestSeedDecidesOrder: the same seed gives the same operation list and the
// same generated kernels; another seed gives the same operations in another
// order.
func TestSeedDecidesOrder(t *testing.T) {
	for _, name := range workloadNames() {
		a, err := newWorkload(name, 7, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7, fullSizes)
		c, _ := newWorkload(name, 8, fullSizes)
		if opNames(a) != opNames(b) {
			t.Errorf("%s: seed 7 twice gave different orders", name)
		}
		if len(a.ops) > 3 && opNames(a) == opNames(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same order", name)
		}
		if len(a.ops) != len(c.ops) {
			t.Errorf("%s: %d operations with seed 7, %d with seed 8", name, len(a.ops), len(c.ops))
		}
		seen := map[string]bool{}
		for _, o := range a.ops {
			if seen[o.name] {
				t.Errorf("%s: operation %s appears twice", name, o.name)
			}
			seen[o.name] = true
		}
	}
	first, second := generatedInputs(3), generatedInputs(3)
	for i := range first {
		ma, err := first[i].build()
		if err != nil {
			t.Fatal(err)
		}
		mb, _ := second[i].build()
		if digest(ma.Funcs[0].Instrs) != digest(mb.Funcs[0].Instrs) {
			t.Errorf("generated kernel %d differs between two generations", i)
		}
	}
	ma, _ := first[0].build()
	mb, _ := first[1].build()
	if digest(ma.Funcs[0].Instrs) == digest(mb.Funcs[0].Instrs) {
		t.Error("generated kernels 0 and 1 are the same kernel")
	}
}

// TestFailuresAreCounted: an operation that returns an error, and one whose
// counters change between runs, both count against fail_share with their
// units.
func TestFailuresAreCounted(t *testing.T) {
	calls := 0
	ops := []op{
		{name: "fine", run: func(*recorder) (opResult, error) { return opResult{sig: "a", cycles: 5}, nil }},
		{name: "broken", units: 3, run: func(*recorder) (opResult, error) { return opResult{}, errors.New("boom") }},
		{name: "drifts", run: func(*recorder) (opResult, error) {
			calls++
			return opResult{sig: fmt.Sprint("cycles=", calls)}, nil
		}},
	}
	b := &bench{first: map[string]string{}}
	p := pass{name: "bench.iteration", ops: ops}
	if out := b.run(p, nil); out.cycles != 5 {
		t.Errorf("cycles = %d, want 5", out.cycles)
	}
	if b.attempted != 5 || b.failed != 3 {
		t.Errorf("after one pass: attempted %d failed %d, want 5 and 3", b.attempted, b.failed)
	}
	b.run(p, newRecorder())
	if b.attempted != 10 || b.failed != 7 {
		t.Errorf("after two passes: attempted %d failed %d, want 10 and 7", b.attempted, b.failed)
	}
	if len(b.failures) != 3 || !strings.Contains(b.failures[0], "boom") || !strings.Contains(b.failures[2], "not deterministic") {
		t.Errorf("failures = %q", b.failures)
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall := metric{Name: mWall, Unit: "s", Better: "lower", Bound: 0.07}
	cycles := metric{Name: mCycles, Unit: "Mcycles", Better: "lower"}
	tight := newDist("s", []float64{0.99, 1.00, 1.00, 1.01, 1.00})
	noisy := newDist("s", []float64{0.80, 0.95, 1.00, 1.05, 1.25})
	scale := func(d dist, f float64) dist {
		xs := make([]float64, len(d.Samples))
		for i, x := range d.Samples {
			xs[i] = x * f
		}
		return newDist(d.Unit, xs)
	}
	cases := []struct {
		name string
		m    metric
		a, b dist
		want string
	}{
		{"tight, unchanged", wall, tight, scale(tight, 1.02), vSame},
		{"tight, 10% slower", wall, tight, scale(tight, 1.10), vWorse},
		{"tight, 10% faster", wall, tight, scale(tight, 0.90), vBetter},
		{"noisy base, overlapping", wall, noisy, scale(noisy, 1.10), vUnresolved},
		{"noisy base, every run slower", wall, noisy, scale(noisy, 2), vWorse},
		{"noisy base, every run faster", wall, noisy, scale(noisy, 0.5), vBetter},
		{"exact, equal", cycles, newDist("Mcycles", []float64{5.4, 5.4}), newDist("Mcycles", []float64{5.4}), vSame},
		{"exact, one cycle more", cycles, newDist("Mcycles", []float64{5.4}), newDist("Mcycles", []float64{5.400001}), vWorse},
		{"exact, fewer", cycles, newDist("Mcycles", []float64{5.4}), newDist("Mcycles", []float64{5.3}), vBetter},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	mkFile := func(wallScale float64) *resultFile {
		e := map[string]dist{}
		for _, m := range endToEnd {
			e[m.Name] = newDist(m.Unit, []float64{1, 1, 1})
		}
		e[mWall] = scale(tight, wallScale)
		e[mFail] = newDist("failed/attempted", []float64{0})
		return &resultFile{Schema: schema, Workloads: []*result{{Workload: wlBase, EndToEnd: e}}}
	}
	var out bytes.Buffer
	if worse := compare(&out, mkFile(1), mkFile(1.5)); worse != 1 {
		t.Errorf("compare counted %d worse rows, want 1:\n%s", worse, out.String())
	}
	for _, want := range []string{"1.5000 (base A 1)", "n/a (base A = 0)", vWorse, vSame} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResultFile(path, mkFile(1).Workloads); err != nil {
		t.Fatal(err)
	}
	back, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if worse := compare(&out, back, mkFile(1)); worse != 0 || strings.Contains(out.String(), vUnresolved) {
		t.Errorf("a file compared with itself:\n%s", out.String())
	}
}

// smallSizes runs every code path of the four workloads on two programs.
var smallSizes = sizes{
	basePrograms:   []string{"demo.vecadd", "rodinia.nn"},
	toolPrograms:   []string{"parboil.histo", "rodinia.nn"},
	valuePrograms:  []string{"rodinia.nn"},
	generated:      1,
	suiteModules:   []string{"demo.vecadd", "demo.calltree"},
	campaigns:      []campaign{{"demo.vecadd", 2}},
	replayPrograms: []string{"rodinia.nn"},
}

// TestWorkloadSmoke makes one traced run of each workload at small sizes
// and checks the accounting, the metric names and the few values that must
// be non-zero on that workload.
func TestWorkloadSmoke(t *testing.T) {
	nonZero := map[string][]string{
		wlBase:    {"ptxas.compile_s", "cuda.context_s", "cuda.host_s", "cuda.launches", "sim.launch_s", "sim.warp_instrs", "sim.thread_instrs", "sim.mwips", "sim.model_cycles", "sim.alloc_kb_per_launch", "sim.gomaxprocs_speedup", "mem.replay_accesses", "mem.replay_hit_rate"},
		wlTools:   {"sassi.inject_branch_s", "sassi.sites_memdiv", "sassi.expansion_value", "sim.injected_warp_instrs_value", "handlers.calls_branch", "handlers.collect_memdiv_s", "sassi.t_ratio_value", "sassi.k_ratio_branch", "sim.launch_s"},
		wlCompile: {"ptx.build_s", "ptx.instrs", "ptxas.compile_s", "ptxas.compile_sched_s", "ptxas.sass_instrs", "ptxas.us_per_instr", "ptxas.alloc_mb", "sass.codec_s", "sass.bytes", "sassi.inject_value_s", "sassi.sites_branch", "sassi.expansion_memdiv", "analysis.verify_base_s", "analysis.verify_branch_s", "analysis.verify_memdiv_s", "analysis.verify_us_per_instr", "analysis.verify_alloc_mb"},
		wlFI:      {"faults.campaign_s", "faults.runs", "faults.runs_per_s", "faults.fixed_s", "faults.workers_speedup"},
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rec := newRecorder()
			res, err := measure(name, 1, smallSizes, limits{iterations: 1}, rec, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d failed %d: %q", res.Attempted, res.Failed, res.Failures)
			}
			if res.Iterations != 1 || res.TracedIterations != 1 {
				t.Errorf("iterations %d traced %d, want 1 and 1", res.Iterations, res.TracedIterations)
			}
			for _, m := range endToEnd {
				d, ok := res.EndToEnd[m.Name]
				if !ok {
					t.Errorf("no end-to-end metric %s", m.Name)
				}
				zeroOK := m.Name == mFail || (m.Name == mCycles && (name == wlCompile || name == wlFI))
				if (d.Value == 0) != zeroOK {
					t.Errorf("%s = %v", m.Name, d.Value)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics, table has %d", len(res.PerLayer), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := res.PerLayer[m.Name]; !ok {
					t.Errorf("no per-layer metric %s", m.Name)
				}
			}
			for _, n := range nonZero[name] {
				if res.PerLayer[n] <= 0 {
					t.Errorf("%s = %v, want > 0", n, res.PerLayer[n])
				}
			}
			if c := res.PerLayer["bench.span_coverage"]; c < 0.9 || c > 1 {
				t.Errorf("bench.span_coverage = %v", c)
			}
			if name == wlCompile && res.PerLayer["sim.launch_s"] != 0 {
				t.Error("compile-only launched a kernel")
			}

			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(perLayer)+len(driverExact) {
				t.Errorf("traced driver line: correct %v attempted %d, %d metrics", line.Correct, line.Attempted, len(line.Metrics))
			}
			res.PerLayer = nil
			line.Metrics = nil
			if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(endToEnd)-len(driverExact) || line.Metrics[mSetup].Unit != "s" || line.Metrics[mWall].Value <= 0 {
				t.Errorf("untraced driver line metrics = %v", line.Metrics)
			}
		})
	}
}

// TestAllowedAPI keeps the benchmark compiling across the refactors the
// roadmap plans: it may import only the packages the README lists and must
// not mention the identifiers those refactors delete or reshape.
func TestAllowedAPI(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"analysis", "cuda", "difftest", "faults", "handlers", "ptx", "ptxas", "sass", "sassi", "sim", "trace", "workloads"} {
		allowed["sassi/internal/"+p] = true
	}
	forbidden := regexp.MustCompile(`\.Engine\b|SequentialSMs|SequentialHandler|\.Sequential\b|OpCounter|Env\.Fast|BlockLiveness|internal/obs|internal/experiments`)
	imports := regexp.MustCompile(`"(sassi/[^"]+)"`)
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files: %v", err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range imports.FindAllStringSubmatch(string(data), -1) {
			if !allowed[m[1]] {
				t.Errorf("%s imports %s, which is not on the allowed list", f, m[1])
			}
		}
		for i, line := range strings.Split(string(data), "\n") {
			if code, _, _ := strings.Cut(line, "//"); forbidden.MatchString(code) {
				t.Errorf("%s:%d uses a forbidden identifier: %s", f, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the tables in metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloadInfos) {
		t.Fatalf("%d workloads, table has %d", len(spec.Workloads), len(workloadInfos))
	}
	for i, w := range workloadInfos {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, table has %+v", i, spec.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	var wantE2E, wantLayer []metric
	for _, m := range endToEnd {
		if driverExact[m.Name] {
			wantLayer = append(wantLayer, metric{Name: m.Name, Unit: m.Unit, Better: m.Better})
		} else {
			wantE2E = append(wantE2E, m)
		}
	}
	wantLayer = append(wantLayer, perLayer...)
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, tables have %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d = %+v, table has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || w.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, table has %v", kind, g.Name, g.Bound, w.Bound)
			}
			if len(w.Unit) > 16 || len(w.Name) > 64 {
				t.Errorf("%s %s: name or unit too long", kind, w.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, wantE2E, true)
	check("per_layer", spec.PerLayer, wantLayer, false)
}
