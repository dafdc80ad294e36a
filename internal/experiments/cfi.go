package experiments

import (
	"fmt"
	"strings"

	"sassi/internal/faults"
	"sassi/internal/handlers"
	"sassi/internal/workloads"
)

// CFIRow is one application's control-state detection-coverage result.
type CFIRow struct {
	App    string
	Result *faults.ControlResult
}

// CFIApps returns the default control-campaign application list: the
// call-tree demo exercises every corruption class (it is the only workload
// with a real CAL/RET tree — ptxas never emits one), and bfs adds a
// compiled, divergence-heavy kernel for the divergence-stack and
// forged-call classes.
func CFIApps() []string {
	return []string{"demo.calltree", "parboil.bfs"}
}

// CFICoverage runs control-state corruption campaigns over the given
// applications (nil = default list) and reports per-class detection
// coverage of the runtime CFI checker.
func CFICoverage(env Env, apps []string, injections int, seed uint64) ([]CFIRow, error) {
	if apps == nil {
		apps = CFIApps()
	}
	if injections <= 0 {
		injections = 100
	}
	var rows []CFIRow
	for _, app := range apps {
		spec, ok := workloads.Get(app)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", app)
		}
		dataset := spec.DefaultDataset()
		if app == "parboil.bfs" {
			dataset = "UT" // smallest graph keeps campaigns quick
		}
		c := &faults.ControlCampaign{
			Spec: spec, Dataset: dataset,
			Injections: injections, Seed: seed, Config: env.Config,
			Workers: env.Workers, Cache: env.Cache,
		}
		res, err := c.Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: control campaign %s: %w", app, err)
		}
		rows = append(rows, CFIRow{App: app, Result: res})
	}
	return rows, nil
}

// FormatCFICoverage renders the detection-coverage table: one line per
// (app, corruption class) with the outcome split, plus the
// false-positive count from each app's uncorrupted run.
func FormatCFICoverage(rows []CFIRow) string {
	var b strings.Builder
	b.WriteString("CFI: control-state corruption detection coverage (fraction of injections)\n")
	b.WriteString(fmt.Sprintf("%-16s %-12s %6s %5s %9s %8s %6s %7s %7s\n",
		"app", "class", "sites", "runs", "detected", "crashed", "hung", "silent", "masked"))
	for _, r := range rows {
		res := r.Result
		for cl := 0; cl < int(handlers.NumCtrlClasses); cl++ {
			class := handlers.CtrlClass(cl)
			if res.Sites[cl] == 0 {
				b.WriteString(fmt.Sprintf("%-16s %-12s %6d %5s %9s\n",
					r.App, class, 0, "-", "n/a"))
				continue
			}
			b.WriteString(fmt.Sprintf("%-16s %-12s %6d %5d %8.1f%% %7.1f%% %5.1f%% %6.1f%% %6.1f%%\n",
				r.App, class, res.Sites[cl], res.ClassTotals[cl],
				100*res.Fraction(class, faults.CtrlDetected),
				100*res.Fraction(class, faults.CtrlCrash),
				100*res.Fraction(class, faults.CtrlHang),
				100*res.Fraction(class, faults.CtrlSilent),
				100*res.Fraction(class, faults.CtrlMasked)))
		}
		b.WriteString(fmt.Sprintf("%-16s false positives on the uncorrupted run: %d\n",
			r.App, res.FalsePositives))
	}
	return b.String()
}

// AssertCFIDetect is the gate of `experiments -run cfi -assert-cfi-detect`:
// it returns an error unless every app had no CFI violation on its
// uncorrupted run, drew at least one return-address injection, and detected
// at least floor of them.
func AssertCFIDetect(rows []CFIRow, floor float64) error {
	for _, r := range rows {
		res := r.Result
		if res.FalsePositives != 0 {
			return fmt.Errorf("experiments: %s: %d false positives on the uncorrupted run", r.App, res.FalsePositives)
		}
		if res.ClassTotals[handlers.CtrlRetBitFlip] == 0 {
			return fmt.Errorf("experiments: %s: no return-address injections drawn", r.App)
		}
		if rate := res.DetectionRate(handlers.CtrlRetBitFlip); rate < floor {
			return fmt.Errorf("experiments: %s: return-address detection %.1f%% below the %.1f%% floor",
				r.App, 100*rate, 100*floor)
		}
	}
	return nil
}
