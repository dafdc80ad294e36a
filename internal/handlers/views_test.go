package handlers_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/ptxas"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// TestViewsGolden pins what the parameter views hand a handler on every
// dispatch of the tools-suite programs under each case-study tool and the
// fault campaigns' site profiler: per program × tool, the dispatch count
// and an order-independent digest (the wrapping sum of one FNV-64a per
// dispatch) over the site id, the active mask, the will-execute mask and
// the tool's per-lane values — branch directions, memory addresses,
// destination register values. testdata/views.golden was recorded through
// the per-lane accessors (InstrWillExecute(l), Direction(l), Address(l),
// GetRegValue(l, r)) before the row-grain views existed; the test reads
// through the mask and vector accessors that replaced them in the
// handlers (WillExecuteMask, DirectionMask, Addresses, GetRegValues) and
// must reproduce it bit for bit. MiniGPU, sequential SMs.
// Regenerate only for an intended change of what the injector passes:
// `go test ./internal/handlers -run ViewsGolden -update`.
func TestViewsGolden(t *testing.T) {
	file := filepath.Join("testdata", "views.golden")
	var b strings.Builder
	for _, p := range toolPrograms {
		for _, vt := range viewTools {
			b.WriteString(viewsRun(t, p, vt))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/handlers -run ViewsGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("differs from %s\n--- got ---\n%s--- want ---\n%s", file, got, want)
	}
}

// viewTool is one tool the views golden records: its instrumentation and
// handler, and what its body reads beyond the site id and the masks.
type viewTool struct {
	name string
	tool func(ctx *cuda.Context) (sassi.Options, *sassi.Handler)
	read func(w *device.Warp, args sassi.HandlerArgs, rec *viewRecord)
}

var viewTools = []viewTool{
	{"branch", func(ctx *cuda.Context) (sassi.Options, *sassi.Handler) {
		p := handlers.NewBranchProfiler(ctx)
		return p.Options(), p.Handler()
	}, func(w *device.Warp, args sassi.HandlerArgs, rec *viewRecord) {
		rec.u32(args.CBP.DirectionMask())
	}},
	{"memdiv", func(ctx *cuda.Context) (sassi.Options, *sassi.Handler) {
		p := handlers.NewMemDivProfiler(ctx)
		return p.Options(), p.Handler()
	}, func(w *device.Warp, args sassi.HandlerArgs, rec *viewRecord) {
		if args.MP == nil {
			return
		}
		var addr device.Vec64
		args.MP.Addresses(&addr)
		rec.vec64(&addr)
	}},
	{"value", func(ctx *cuda.Context) (sassi.Options, *sassi.Handler) {
		p := handlers.NewValueProfiler(ctx)
		return p.Options(), p.Handler()
	}, readDstValues},
	{"site", func(ctx *cuda.Context) (sassi.Options, *sassi.Handler) {
		p := handlers.NewInjProfiler(ctx, 1<<16)
		return p.Options(), p.Handler()
	}, readDstValues},
}

// readDstValues records every destination register's number and per-lane
// value at an after-write site.
func readDstValues(w *device.Warp, args sassi.HandlerArgs, rec *viewRecord) {
	rp := args.RP
	if rp == nil {
		return
	}
	nd := rp.NumGPRDsts()
	rec.u32(uint32(nd))
	for d := 0; d < nd; d++ {
		reg := rp.GPRDst(d)
		var v device.Vec32
		rp.GetRegValues(reg, &v)
		rec.u32(uint32(reg))
		rec.vec32(&v)
	}
}

// viewRecord is one dispatch's bytes, hashed into the run's digest.
type viewRecord struct{ b []byte }

func (r *viewRecord) u32(v uint32) { r.b = binary.LittleEndian.AppendUint32(r.b, v) }

func (r *viewRecord) vec32(v *device.Vec32) {
	for _, x := range v {
		r.u32(x)
	}
}

func (r *viewRecord) vec64(v *device.Vec64) {
	for _, x := range v {
		r.b = binary.LittleEndian.AppendUint64(r.b, x)
	}
}

// viewsRun runs one program under one tool, recording every dispatch's
// views before the tool's own body runs, and returns its golden line.
func viewsRun(t *testing.T, program string, vt viewTool) string {
	t.Helper()
	spec, ok := workloads.Get(program)
	if !ok {
		t.Fatalf("workload %s not registered", program)
	}
	prog, err := spec.Compile(ptxas.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := sim.MiniGPU()
	cfg.SequentialSMs = true
	ctx := cuda.NewContext(cfg)
	opts, h := vt.tool(ctx)
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatalf("instrument: %v", err)
	}
	var n, sum uint64
	var rec viewRecord
	body := h.Fn
	rt := sassi.NewRuntime(prog)
	rt.MustRegister(&sassi.Handler{Name: h.Name, What: h.What, Fn: func(w *device.Warp, args sassi.HandlerArgs) {
		rec.b = rec.b[:0]
		rec.u32(uint32(args.BP.ID()))
		rec.u32(w.ActiveMask())
		rec.u32(args.BP.WillExecuteMask())
		vt.read(w, args, &rec)
		d := fnv.New64a()
		d.Write(rec.b)
		n++
		sum += d.Sum64()
		body(w, args)
	}})
	rt.Attach(ctx.Device())
	res, err := spec.Run(ctx, prog, spec.DefaultDataset())
	if err != nil {
		t.Fatalf("%s/%s: run: %v", program, vt.name, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("%s/%s: instrumented run no longer verifies: %v", program, vt.name, res.VerifyErr)
	}
	if n == 0 {
		t.Fatalf("%s/%s: no dispatch", program, vt.name)
	}
	return fmt.Sprintf("%s %s dispatches=%d digest=%016x\n", program, vt.name, n, sum)
}
