package sim_test

import (
	"reflect"
	"testing"

	"sassi/internal/obs"
	"sassi/internal/sim"
)

// launchStats runs the gid kernel on a fresh device and returns its stats.
func launchStats(t *testing.T, cfg sim.Config, grid, block sim.Dim3) *sim.KernelStats {
	t.Helper()
	prog := storeGlobalIdKernel(t)
	dev := sim.NewDevice(cfg)
	total := grid.Count() * block.Count()
	out := dev.Alloc(uint64(4 * total))
	stats, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: grid, Block: block, Args: []uint64{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The outputs must be right regardless of execution mode.
	for i := 0; i < total; i++ {
		v, _ := dev.Global.Read32(out + uint64(4*i))
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	return stats
}

// TestParallelMatchesSequentialStats is the engine-level determinism
// contract: for a launch free of cross-SM order-sensitive data flow, the
// concurrent-SM engine produces KernelStats bit-equal to the sequential
// escape hatch, and repeated parallel runs are bit-equal to each other.
func TestParallelMatchesSequentialStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  sim.Config
	}{
		{"mini", sim.MiniGPU()},
		{"k10", sim.KeplerK10()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid, block := sim.D2(6, 3), sim.D2(8, 8)
			seq := tc.cfg
			seq.SequentialSMs = true
			par := tc.cfg
			par.SequentialSMs = false

			want := launchStats(t, seq, grid, block)
			for i := 0; i < 3; i++ {
				got := launchStats(t, par, grid, block)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parallel run %d stats diverge:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}

// launchMetrics runs the gid kernel on a fresh device with a live registry
// and returns the flattened metric snapshot.
func launchMetrics(t *testing.T, cfg sim.Config, grid, block sim.Dim3) map[string]uint64 {
	t.Helper()
	prog := storeGlobalIdKernel(t)
	dev := sim.NewDevice(cfg)
	reg := obs.NewRegistry()
	dev.Metrics = reg
	out := dev.Alloc(uint64(4 * grid.Count() * block.Count()))
	if _, err := dev.Launch(prog, "gid", sim.LaunchParams{
		Grid: grid, Block: block, Args: []uint64{out},
	}); err != nil {
		t.Fatal(err)
	}
	return reg.Flat("sm")
}

// TestParallelMatchesSequentialMetrics extends the determinism contract to
// the observability registry: the flattened metric map — per-SM shards
// included — must be bit-equal between the concurrent-SM engine and the
// sequential escape hatch, and across repeated parallel runs. Shard cells
// are single-writer and merges are order-independent sums, so any diff here
// means a shard leaked across SM goroutines.
func TestParallelMatchesSequentialMetrics(t *testing.T) {
	grid, block := sim.D2(6, 3), sim.D2(8, 8)
	seq := sim.KeplerK10()
	seq.SequentialSMs = true
	par := sim.KeplerK10()
	par.SequentialSMs = false

	want := launchMetrics(t, seq, grid, block)
	if want[obs.MSimWarpInstrs] == 0 || want[obs.MSimWarpInstrs+".sm0"] == 0 {
		t.Fatalf("registry not populated: %v", want)
	}
	for i := 0; i < 3; i++ {
		got := launchMetrics(t, par, grid, block)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel run %d metrics diverge:\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestParallelSMCycleAttribution checks the per-SM cycle vector is populated
// for every SM that received CTAs and Cycles is their max.
func TestParallelSMCycleAttribution(t *testing.T) {
	cfg := sim.MiniGPU()
	stats := launchStats(t, cfg, sim.D1(8), sim.D1(32))
	if len(stats.SMCycles) != cfg.NumSMs {
		t.Fatalf("SMCycles has %d entries, want %d", len(stats.SMCycles), cfg.NumSMs)
	}
	var max uint64
	for sm, c := range stats.SMCycles {
		if c == 0 {
			t.Errorf("SM %d reports zero cycles despite running CTAs", sm)
		}
		if c > max {
			max = c
		}
	}
	if stats.Cycles != max {
		t.Errorf("Cycles = %d, want max(SMCycles) = %d", stats.Cycles, max)
	}
}
