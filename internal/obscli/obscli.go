// Package obscli holds the flags the command-line tools share. It wires the
// observability layer in: cmd/sassi, cmd/sassi-fi, and cmd/experiments all
// expose the same -trace / -stats-json / -http / -pcsamp flags through it,
// so the flag semantics (and the zero-cost-when-off rule: no flag, nil
// registry, tracer, and sampler) stay identical across binaries. Every
// tool that simulates takes its device model from the one -gpu flag here.
package obscli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sassi/internal/obs"
	"sassi/internal/obs/pcsamp"
	"sassi/internal/sim"
)

// Flags holds the shared observability flag values.
type Flags struct {
	// TraceOut is -trace: a Chrome trace-event JSON output path.
	TraceOut string
	// StatsOut is -stats-json: a run-stats JSON output path ("-" = stdout).
	StatsOut string
	// HTTPAddr is -http: address for the /metrics + /stats.json endpoint.
	HTTPAddr string
	// PCSampOut is -pcsamp: folded-stack profile output path ("-" = stdout).
	PCSampOut string
	// PCSampPprof is -pcsamp-pprof: gzipped profile.proto output path.
	PCSampPprof string
	// PCSampPeriod is -pcsamp-period: sampling cadence in modeled cycles.
	PCSampPeriod uint64
}

// Register declares the shared observability flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace", "",
		"write a Chrome trace-event JSON timeline here (load at ui.perfetto.dev)")
	fs.StringVar(&f.StatsOut, "stats-json", "",
		`write run statistics as sorted JSON here ("-" for stdout)`)
	fs.StringVar(&f.HTTPAddr, "http", "",
		"serve /metrics (Prometheus text), /stats.json, /debug/pprof/, and /debug/sassiprof/profile on this address, e.g. :8080")
	fs.StringVar(&f.PCSampOut, "pcsamp", "",
		`write a folded-stack PC-sampling profile here ("-" for stdout; pipe into flamegraph.pl)`)
	fs.StringVar(&f.PCSampPprof, "pcsamp-pprof", "",
		"write a gzipped pprof profile.proto PC-sampling profile here (view with go tool pprof)")
	fs.Uint64Var(&f.PCSampPeriod, "pcsamp-period", pcsamp.DefaultPeriod,
		"PC-sampling cadence in modeled device cycles (1 = exact per-instruction attribution)")
	return f
}

// Enabled reports whether any metrics/trace output was requested.
func (f *Flags) Enabled() bool {
	return f.TraceOut != "" || f.StatsOut != "" || f.HTTPAddr != ""
}

// SamplingEnabled reports whether the PC sampler should run: any sampling
// output, or the HTTP endpoint (whose /debug/sassiprof/profile handler
// serves continuous profiles — the always-on shape, affordable because
// sampling costs well under 10% at the default period).
func (f *Flags) SamplingEnabled() bool {
	return f.PCSampOut != "" || f.PCSampPprof != "" || f.HTTPAddr != ""
}

// Setup returns the registry, tracer, and PC sampler the flags imply —
// each nil when its outputs are off, keeping disabled observability free —
// and starts the HTTP endpoint if requested. stats is called per
// /stats.json request to wrap the live registry; nil serves the bare
// flattened registry. Callers attach the sampler to their device(s):
// sim.Device.PCSamp.
func (f *Flags) Setup(stats func() *obs.Stats) (*obs.Registry, *obs.Tracer, *pcsamp.Sampler) {
	var reg *obs.Registry
	var tr *obs.Tracer
	var samp *pcsamp.Sampler
	if f.Enabled() {
		reg = obs.NewRegistry()
	}
	if f.TraceOut != "" {
		tr = obs.NewTracer()
		tr.NameProcess(obs.PidHost, "host (wall µs)")
		tr.NameThread(obs.PidHost, obs.TidHostMain, "main")
		tr.NameThread(obs.PidHost, obs.TidHostCompile, "compile+instrument")
	}
	if f.SamplingEnabled() {
		samp = pcsamp.New(f.PCSampPeriod)
		samp.Metrics = reg
	}
	if f.HTTPAddr != "" {
		obs.Serve(f.HTTPAddr, reg, stats, func(err error) {
			fmt.Fprintf(os.Stderr, "obs http: %v\n", err)
		}, obs.Mount{Pattern: "/debug/sassiprof/profile", Handler: samp.ProfileHandler()})
	}
	return reg, tr, samp
}

// Finish writes the -trace, -stats-json, and -pcsamp* outputs. stats may
// be nil when -stats-json is off; samp may be nil when sampling is off.
func (f *Flags) Finish(tr *obs.Tracer, stats *obs.Stats, samp *pcsamp.Sampler) error {
	if f.TraceOut != "" {
		w, err := os.Create(f.TraceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	if f.StatsOut != "" && stats != nil {
		if err := writeTo(f.StatsOut, stats.WriteJSON); err != nil {
			return err
		}
	}
	if samp != nil {
		prof := samp.Profile()
		if f.PCSampOut != "" {
			if err := writeTo(f.PCSampOut, prof.WriteFolded); err != nil {
				return err
			}
		}
		if f.PCSampPprof != "" {
			if err := writeTo(f.PCSampPprof, prof.WritePprof); err != nil {
				return err
			}
		}
	}
	return nil
}

// Session is one command run's observability: the registry, tracer and
// PC sampler its flags imply, each nil when its outputs are off, and the
// command's own fields of the stats it reports.
type Session struct {
	Metrics *obs.Registry
	Trace   *obs.Tracer
	PCSamp  *pcsamp.Sampler
	flags   *Flags
	fill    func(*obs.Stats)
}

// Start is Setup for a command: every stats object the session reports —
// one per /stats.json request and the -stats-json one Finish writes — is
// the registry's, with fill setting the command's fields (workload,
// device model, counters of its own) on it.
func (f *Flags) Start(fill func(*obs.Stats)) *Session {
	s := &Session{flags: f, fill: fill}
	s.Metrics, s.Trace, s.PCSamp = f.Setup(s.stats)
	return s
}

func (s *Session) stats() *obs.Stats {
	st := obs.NewStats(s.Metrics)
	s.fill(st)
	return st
}

// Finish writes the -trace, -stats-json and -pcsamp* outputs the
// session's flags ask for.
func (s *Session) Finish() error {
	return s.flags.Finish(s.Trace, s.stats(), s.PCSamp)
}

// writeTo streams write to path, with "-" meaning stdout.
func writeTo(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// GPU is the -gpu flag: a device model by name.
type GPU struct{ Name string }

// RegisterGPU declares -gpu on fs, defaulting to def.
func RegisterGPU(fs *flag.FlagSet, def string) *GPU {
	g := &GPU{}
	fs.StringVar(&g.Name, "gpu", def, "device model: k10, k20, k40, mini")
	return g
}

// gpuConfig returns the device model called name, and false for a name
// -gpu does not know.
func gpuConfig(name string) (sim.Config, bool) {
	switch name {
	case "k10":
		return sim.KeplerK10(), true
	case "k20":
		return sim.KeplerK20(), true
	case "k40":
		return sim.KeplerK40(), true
	case "mini":
		return sim.MiniGPU(), true
	}
	return sim.Config{}, false
}

// Config returns the device model -gpu names. An unknown name ends the
// process with exit status 2, as a flag-parsing error does.
func (g *GPU) Config() sim.Config {
	cfg, ok := gpuConfig(g.Name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown gpu %q\n", g.Name)
		os.Exit(2)
	}
	return cfg
}
