package handlers

import (
	"sort"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/sassi"
)

// Branch-statistics field indices within the InsTable entry (the paper's
// struct BranchStats of Figure 4).
const (
	bfTotal    = iota // totalBranches
	bfActive          // activeThreads
	bfTaken           // takenThreads
	bfNotTaken        // takenNotThreads
	bfDiverge         // divergentBranches
	bfFields
)

// BranchProfiler is Case Study I (§5): a SASSI handler before every
// conditional branch recording, per branch, execution counts, active/taken/
// fall-through thread counts, and how often the warp split.
type BranchProfiler struct {
	Table *InsTable
}

// NewBranchProfiler allocates the device-side state.
func NewBranchProfiler(ctx *cuda.Context) *BranchProfiler {
	return &BranchProfiler{Table: NewInsTable(ctx, "sassi.branch_stats", 1024, bfFields, nil)}
}

// Options returns the instrumentation specification for this profiler.
func (p *BranchProfiler) Options() sassi.Options {
	return sassi.Options{
		Where:         sassi.BeforeCondBranches,
		What:          sassi.PassCondBranchInfo,
		BeforeHandler: "sassi_branch_handler",
	}
}

// Handler returns the registered handler, a direct translation of the
// paper's Figure 4.
func (p *BranchProfiler) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_branch_handler",
		What: sassi.PassCondBranchInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			// Which way is each thread going?
			dir := args.CBP.DirectionMask()

			// Masks and counts of active/taken/fall-through threads.
			active := w.Ballot(device.FullMask)
			taken := w.Ballot(dir)
			ntaken := w.Ballot(^dir)
			numActive := device.Popc(active)
			numTaken := device.Popc(taken)
			numNotTaken := device.Popc(ntaken)

			// The first active thread writes the warp's results.
			c := w.Lane(device.Ffs(active) - 1)
			stats := p.Table.Find(c, args.BP.InsAddr())
			c.AtomicAdd64(stats+bfTotal*8, 1)
			c.AtomicAdd64(stats+bfActive*8, uint64(numActive))
			c.AtomicAdd64(stats+bfTaken*8, uint64(numTaken))
			c.AtomicAdd64(stats+bfNotTaken*8, uint64(numNotTaken))
			if numTaken != numActive && numNotTaken != numActive {
				// Threads went different ways.
				c.AtomicAdd64(stats+bfDiverge*8, 1)
			}
		},
	}
}

// BranchStats is one branch's decoded statistics.
type BranchStats struct {
	InsAddr   int32
	Total     uint64 // warp-level executions
	Active    uint64
	Taken     uint64
	NotTaken  uint64
	Divergent uint64 // warp-level divergent executions
}

// Results decodes per-branch statistics, sorted by descending execution
// count (the order of the paper's Figure 5 plots).
func (p *BranchProfiler) Results() ([]BranchStats, error) {
	entries, err := p.Table.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([]BranchStats, 0, len(entries))
	for _, e := range entries {
		out = append(out, BranchStats{
			InsAddr: e.Key, Total: e.Fields[bfTotal], Active: e.Fields[bfActive],
			Taken: e.Fields[bfTaken], NotTaken: e.Fields[bfNotTaken],
			Divergent: e.Fields[bfDiverge],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].InsAddr < out[j].InsAddr
	})
	return out, nil
}

// Summary aggregates per-branch stats into the paper's Table 1 row:
// static branch counts and dynamic divergence.
type BranchSummary struct {
	StaticBranches    int
	StaticDivergent   int
	DynamicBranches   uint64
	DynamicDivergent  uint64
	StaticDivergentPc float64
	DynDivergentPc    float64
}

// Summarize computes the Table 1 metrics from the profile.
func (p *BranchProfiler) Summarize() (BranchSummary, error) {
	rows, err := p.Results()
	if err != nil {
		return BranchSummary{}, err
	}
	var s BranchSummary
	for _, r := range rows {
		s.StaticBranches++
		s.DynamicBranches += r.Total
		s.DynamicDivergent += r.Divergent
		if r.Divergent > 0 {
			s.StaticDivergent++
		}
	}
	if s.StaticBranches > 0 {
		s.StaticDivergentPc = 100 * float64(s.StaticDivergent) / float64(s.StaticBranches)
	}
	if s.DynamicBranches > 0 {
		s.DynDivergentPc = 100 * float64(s.DynamicDivergent) / float64(s.DynamicBranches)
	}
	return s, nil
}
