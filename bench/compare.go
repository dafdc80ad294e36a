package main

import (
	"fmt"
	"io"
)

// Verdicts of -compare.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// verdict judges B against base A on one end-to-end metric (all of which
// are better when lower). A metric is unresolved, not unchanged, when A's
// own iterations spread wider than the metric's bound and the two sets of
// iterations overlap: then a shift of the size the bound forbids could hide
// in the noise. Exact metrics (bound 0) compare bit for bit.
func verdict(m metric, a, b dist) string {
	if m.Bound == 0 {
		switch {
		case b.Value == a.Value:
			return vSame
		case b.Value < a.Value:
			return vBetter
		}
		return vWorse
	}
	overlap := b.Min <= a.Max && a.Min <= b.Max
	if a.Value != 0 && (a.Q3-a.Q1)/a.Value > m.Bound && overlap {
		return vUnresolved
	}
	switch {
	case b.Value > a.Value*(1+m.Bound):
		return vWorse
	case b.Value < a.Value*(1-m.Bound):
		return vBetter
	}
	return vSame
}

// compare prints one row per workload and end-to-end metric present in both
// files and returns how many rows are worse.
func compare(w io.Writer, a, b *resultFile) (worse int) {
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-13s %-14s %-30s %-30s %-22s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-13s only in A\n", ra.Workload)
			continue
		}
		for _, m := range endToEnd {
			da, db := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			rel := "n/a (base A = 0)"
			if da.Value != 0 {
				rel = fmt.Sprintf("%.4f (base A %.4g)", db.Value/da.Value, da.Value)
			}
			v := verdict(m, da, db)
			if v == vWorse {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-14s %-30s %-30s %-22s %s\n", ra.Workload, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", da.Value, da.Q1, da.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", db.Value, db.Q1, db.Q3), rel, v)
		}
	}
	return worse
}
