package difftest

import (
	"fmt"
	"io"
	"sync"

	"sassi/internal/fanout"
	"sassi/internal/handlers"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// Campaign drives many oracle runs over generated kernels on the worker
// pool the fault campaigns use, fanout.Run: per-run seeds are a pure
// function of (Seed, run index) via SplitMix, so results are identical at
// any worker count, and all workers share one CompileCache.
type Campaign struct {
	Seed    uint64
	Runs    int
	Workers int // 0 = GOMAXPROCS
	Size    Size
	Tools   []handlers.ToolSpec // nil = every tool of handlers.Tools
	Cfg     sim.Config          // zero = MiniGPU
	Log     io.Writer           // nil = quiet; failures are logged as they appear

	// Shrink minimizes failing kernels before reporting (on by default in
	// the CLI; tests that want the raw failing Prog leave it false).
	Shrink bool
}

// CampaignFailure is one diverging kernel, minimized if Campaign.Shrink.
type CampaignFailure struct {
	Run      int
	Seed     uint64 // per-run derived seed
	Prog     *Prog  // failing (possibly minimized) kernel
	Failures []Failure
}

// Note renders the failure list as a repro-header note.
func (cf *CampaignFailure) Note() string {
	s := fmt.Sprintf("run %d (derived seed %#x)", cf.Run, cf.Seed)
	for _, f := range cf.Failures {
		s += "\n" + f.String()
	}
	return s
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Runs        int
	Launches    int
	Failures    []CampaignFailure
	Errors      []error // harness errors (generator/compile bugs), not verdicts
	CacheHits   uint64
	CacheMisses uint64
}

// Run executes the campaign. A non-nil error is reserved for setup
// problems; kernel divergences land in CampaignResult.Failures and
// harness errors in CampaignResult.Errors, both in run order.
func (c *Campaign) Run() (*CampaignResult, error) {
	cache := sassi.NewCompileCache()
	// Each worker owns an Oracle (Run threads per-tool state), all sharing
	// the campaign-wide compile cache.
	newOracle := func() *Oracle {
		o := NewOracle(c.Tools, c.Cfg)
		o.Cache = cache
		return o
	}
	// A run's harness error lands in its slot, not in fanout.Run's result:
	// one run's error stops no other.
	runs := make([]campaignRun, c.Runs)
	var logMu sync.Mutex
	fanout.Run(c.Workers, c.Runs, newOracle, func(o *Oracle, _, run int) error {
		r := c.runOne(o, run)
		if cf := r.failure; cf != nil && c.Log != nil {
			logMu.Lock()
			fmt.Fprintf(c.Log, "FAIL run %d seed %#x: %d divergence(s); first: %s\n",
				run, cf.Seed, len(cf.Failures), cf.Failures[0])
			logMu.Unlock()
		}
		runs[run] = r
		return nil
	})

	res := &CampaignResult{Runs: c.Runs}
	for _, r := range runs {
		res.Launches += r.launches
		if r.err != nil {
			res.Errors = append(res.Errors, r.err)
		}
		if r.failure != nil {
			res.Failures = append(res.Failures, *r.failure)
		}
	}
	res.CacheHits, res.CacheMisses = cache.Stats()
	return res, nil
}

// campaignRun is what one campaign run yields: the launches it made, and
// its harness error or its divergence, if any.
type campaignRun struct {
	launches int
	err      error
	failure  *CampaignFailure
}

// runOne generates, checks and, if c.Shrink, minimizes run number run's
// kernel on o.
func (c *Campaign) runOne(o *Oracle, run int) campaignRun {
	var out campaignRun
	seed := SplitMix(c.Seed, uint64(run))
	p := Generate(seed, c.Size)
	r, err := o.Run(p)
	if r != nil {
		out.launches = r.Launches
	}
	if err != nil {
		out.err = fmt.Errorf("run %d: %w", run, err)
		return out
	}
	if !r.Failed() {
		return out
	}
	cf := &CampaignFailure{Run: run, Seed: seed, Prog: p, Failures: r.Failures}
	if c.Shrink {
		cf.Prog = Shrink(p, func(q *Prog) bool {
			qr, qerr := o.Run(q)
			if qr != nil {
				out.launches += qr.Launches
			}
			return qerr == nil && qr.Failed()
		})
		if qr, qerr := o.Run(cf.Prog); qerr == nil {
			cf.Failures = qr.Failures
		}
	}
	out.failure = cf
	return out
}
