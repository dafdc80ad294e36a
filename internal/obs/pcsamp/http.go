package pcsamp

import (
	"math"
	"net/http"
	"strconv"
	"time"
)

// ProfileHandler serves the continuous-profiling endpoint (mounted at
// /debug/sassiprof/profile by the CLIs' -http flag):
//
//	?launches=N   wait for N more kernel launches and serve only their
//	              delta profile (0 = snapshot of everything so far)
//	?seconds=S    bound the wait (default 30); on timeout the partial
//	              delta is served rather than an error, matching pprof's
//	              best-effort convention
//	?format=      "pprof" (default, gzipped profile.proto) or "folded"
//	              (flamegraph.pl text)
//
// The handler is nil-receiver safe so it can be mounted unconditionally.
func (s *Sampler) ProfileHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.Error(w, "pc sampling disabled (no sampler attached)", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		n, err := strconv.ParseUint(q.Get("launches"), 10, 64)
		if q.Get("launches") != "" && err != nil {
			http.Error(w, "bad launches parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		timeout := 30 * time.Second
		if v := q.Get("seconds"); v != "" {
			// NaN, ±Inf and anything past time.Duration's range parse
			// without error but convert to no meaningful duration.
			secs, err := strconv.ParseFloat(v, 64)
			ns := secs * float64(time.Second)
			if err != nil || !(secs > 0) || ns >= math.MaxInt64 {
				http.Error(w, "bad seconds parameter", http.StatusBadRequest)
				return
			}
			timeout = time.Duration(ns)
		}
		format := q.Get("format")
		if format != "" && format != "pprof" && format != "folded" {
			http.Error(w, "bad format parameter (want pprof or folded)", http.StatusBadRequest)
			return
		}
		var base *Profile
		if n > 0 {
			base = s.Profile()
			s.WaitLaunches(n, timeout)
		}
		prof := s.Profile()
		if base != nil {
			prof = prof.Sub(base)
		}
		if format == "folded" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = prof.WriteFolded(w)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="sassiprof.pb.gz"`)
		_ = prof.WritePprof(w)
	})
}
