package trace_test

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sim"
	"sassi/internal/trace"
)

func TestTraceCapturesAccesses(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	v := b.LdGlobalU32(b.Index(out, i, 2), 0)
	b.StGlobalU32(b.Index(out, i, 2), 0, b.AddI(v, 1))
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU())
	tr := &trace.MemTracer{}
	tr.Attach(ctx.Device())
	buf := ctx.Malloc(4 * 64)
	if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(2), Block: sim.D1(32), Args: []uint64{uint64(buf)},
	}); err != nil {
		t.Fatal(err)
	}
	// 2 warps x (1 load + 1 store) = 4 events.
	if len(tr.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(tr.Events))
	}
	loads, stores := 0, 0
	for _, e := range tr.Events {
		if e.Store {
			stores++
		} else {
			loads++
		}
		if len(e.Lines) == 0 {
			t.Error("event with no lines")
		}
	}
	if loads != 2 || stores != 2 {
		t.Errorf("loads=%d stores=%d", loads, stores)
	}
	tr.Detach(ctx.Device())
}

func TestTraceSerializationRoundtripQuick(t *testing.T) {
	f := func(pcs []int32, stores []bool, lineSeed uint16) bool {
		tr := &trace.MemTracer{}
		n := len(pcs)
		if n > 40 {
			n = 40
		}
		for i := 0; i < n; i++ {
			store := i < len(stores) && stores[i]
			lines := make([]uint64, int(lineSeed)%5)
			for j := range lines {
				lines[j] = uint64(lineSeed) + uint64(j)*32
			}
			tr.Events = append(tr.Events, trace.Event{PC: pcs[i], Store: store, Lines: lines,
				SM: int32(i % 4), Warp: int32(i)})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		back, err := trace.Read(&buf)
		if err != nil {
			return false
		}
		if len(back.Events) != len(tr.Events) {
			return false
		}
		for i := range back.Events {
			a, b := back.Events[i], tr.Events[i]
			if a.PC != b.PC || a.Store != b.Store || a.SM != b.SM || a.Warp != b.Warp {
				return false
			}
			if len(a.Lines) != len(b.Lines) {
				return false
			}
			if len(a.Lines) > 0 && !reflect.DeepEqual(a.Lines, b.Lines) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceEventsCarrySMAndWarp: events recorded from a live device carry
// the issuing SM and a launch-global warp id, so the memory trace can be
// correlated with per-SM timelines.
func TestTraceEventsCarrySMAndWarp(t *testing.T) {
	b := ptx.NewKernel("k")
	out := b.ParamU64("out")
	i := b.GlobalTidX()
	b.StGlobalU32(b.Index(out, i, 2), 0, i)
	m := ptx.NewModule()
	m.Add(b.MustDone())
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(sim.MiniGPU()) // 2 SMs
	tr := &trace.MemTracer{}
	tr.Attach(ctx.Device())
	buf := ctx.Malloc(4 * 64 * 4)
	// 4 CTAs of 2 warps each: CTAs round-robin across both SMs.
	if _, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{
		Grid: sim.D1(4), Block: sim.D1(64), Args: []uint64{uint64(buf)},
	}); err != nil {
		t.Fatal(err)
	}
	sms := map[int32]bool{}
	warps := map[int32]bool{}
	for _, e := range tr.Events {
		sms[e.SM] = true
		warps[e.Warp] = true
	}
	if len(sms) != 2 {
		t.Errorf("events cover %d SMs, want 2 (%v)", len(sms), sms)
	}
	// 4 CTAs x 2 warps = 8 distinct global warp ids.
	if len(warps) != 8 {
		t.Errorf("events cover %d warps, want 8 (%v)", len(warps), warps)
	}
	for w := range warps {
		if w < 0 || w >= 8 {
			t.Errorf("warp id %d outside [0,8)", w)
		}
	}
}

// TestReadDecodesLegacyV1 pins backward compatibility: a version-1 trace
// (pre SM/Warp fields) still decodes, with zero identity fields.
func TestReadDecodesLegacyV1(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("SASSITR1")
	w64 := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		buf.Write(b[:])
	}
	w32pair := func(a, b uint32) { w64(uint64(a) | uint64(b)<<32) }
	w64(2)             // two events
	w32pair(7, 2<<1|1) // pc=7, store, 2 lines
	w64(0x100)         // line 0
	w64(0x180)         // line 1
	w32pair(9, 1<<1)   // pc=9, load, 1 line
	w64(0x200)         // line 0
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{
		{PC: 7, Store: true, Lines: []uint64{0x100, 0x180}},
		{PC: 9, Store: false, Lines: []uint64{0x200}},
	}
	if !reflect.DeepEqual(back.Events, want) {
		t.Fatalf("v1 decode = %+v, want %+v", back.Events, want)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(bytes.NewReader([]byte("NOTATRACE16BYTE!"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReplayCacheMonotoneInSize(t *testing.T) {
	tr := &trace.MemTracer{}
	// Working set of 64 lines, accessed twice.
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			tr.Events = append(tr.Events, trace.Event{Lines: []uint64{uint64(i) * 128}})
		}
	}
	small := trace.ReplayCache(tr, 2<<10, 128, 4)
	big := trace.ReplayCache(tr, 64<<10, 128, 4)
	if big.HitRate() <= small.HitRate() {
		t.Errorf("bigger cache not better: %f vs %f", big.HitRate(), small.HitRate())
	}
	if big.Accesses != 128 {
		t.Errorf("accesses = %d", big.Accesses)
	}
	// Second round should hit fully in the big cache: 64 misses, 64 hits.
	if big.Hits != 64 {
		t.Errorf("big cache hits=%d of 128", big.Hits)
	}
}
