package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// schema names the layout of the -json file.
const schema = "sassi-bench/1"

// hostFacts say where the numbers were taken.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostFacts {
	return hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// result is one run of one workload.
type result struct {
	Workload         string              `json:"workload"`
	Seed             uint64              `json:"seed"`
	Operations       int                 `json:"operations_per_iteration"`
	Iterations       int                 `json:"iterations"`
	TracedIterations int                 `json:"traced_iterations"`
	Attempted        int                 `json:"attempted"`
	Failed           int                 `json:"failed"`
	Failures         []string            `json:"failures,omitempty"`
	EndToEnd         map[string]dist     `json:"end_to_end"`
	PerLayer         map[string]float64  `json:"per_layer,omitempty"`
	Spans            map[string]*summary `json:"spans,omitempty"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Schema    string    `json:"schema"`
	Host      hostFacts `json:"host"`
	Workloads []*result `json:"workloads"`
}

func writeResultFile(path string, results []*result) error {
	data, err := json.MarshalIndent(resultFile{Schema: schema, Host: host(), Workloads: results}, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encode results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write results: %w", err)
	}
	return nil
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read results: %w", err)
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// print writes one line per metric, "name value unit", end-to-end first.
func (r *result) print(w io.Writer) {
	h := host()
	fmt.Fprintf(w, "# workload %s seed %d: %d operations/iteration, %d timed iterations, %d traced; nproc %d GOMAXPROCS %d %s\n",
		r.Workload, r.Seed, r.Operations, r.Iterations, r.TracedIterations, h.NProc, h.GOMAXPROCS, h.Go)
	for _, m := range endToEnd {
		d := r.EndToEnd[m.Name]
		fmt.Fprintf(w, "%s %.6g %s  # n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g\n",
			m.Name, d.Value, m.Unit, d.N, d.Q1, d.Q3, d.Min, d.Max)
	}
	if r.PerLayer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%s %.6g %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
	}
	fmt.Fprintf(w, "attempted %d\nfailed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
}

// driverLine is the one JSON object the benchmark driver reads from the last
// line of standard output: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func (r *result) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.PerLayer == nil {
		for _, m := range endToEnd {
			if !driverExact[m.Name] {
				metrics[m.Name] = value{r.EndToEnd[m.Name].Value, m.Unit}
			}
		}
	} else {
		for _, m := range perLayer {
			metrics[m.Name] = value{r.PerLayer[m.Name], m.Unit}
		}
		for _, m := range endToEnd {
			if driverExact[m.Name] {
				metrics[m.Name] = value{r.EndToEnd[m.Name].Value, m.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(line)
}
