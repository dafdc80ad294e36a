package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread printed
// here is the spread the driver computes. With fewer than two values both
// are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// dist summarises the samples of one end-to-end metric.
type dist struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"` // median (mean for peak_rss_mb)
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func newDist(unit string, xs []float64) dist {
	d := dist{Unit: unit, Value: median(xs), N: len(xs), Samples: xs}
	d.Q1, d.Q3 = quartiles(xs)
	for i, x := range xs {
		if i == 0 || x < d.Min {
			d.Min = x
		}
		if i == 0 || x > d.Max {
			d.Max = x
		}
	}
	return d
}

// summary is the record kept for every span name (the ProfileSummary shape:
// calls, total, min, mean, standard deviation, plus heap bytes and objects
// allocated inside the spans).
type summary struct {
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	MinS    float64 `json:"min_s"`
	MeanS   float64 `json:"mean_s"`
	StddevS float64 `json:"stddev_s"`
	SelfS   float64 `json:"self_s"`
	Bytes   uint64  `json:"bytes"`
	Allocs  uint64  `json:"allocs"`

	sumSq float64
}

func (s *summary) add(dur, self float64, bytes, allocs uint64) {
	if s.Count == 0 || dur < s.MinS {
		s.MinS = dur
	}
	s.Count++
	s.TotalS += dur
	s.SelfS += self
	s.sumSq += dur * dur
	s.Bytes += bytes
	s.Allocs += allocs
	s.MeanS = s.TotalS / float64(s.Count)
	if v := s.sumSq/float64(s.Count) - s.MeanS*s.MeanS; v > 0 {
		s.StddevS = math.Sqrt(v)
	} else {
		s.StddevS = 0
	}
}
