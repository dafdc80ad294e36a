package analysis_test

import (
	"runtime"
	"testing"
	"unsafe"

	"sassi/internal/analysis"
)

// allocPerCall is the mean TotalAlloc delta of fn over a few runs.
func allocPerCall(fn func()) uint64 {
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

var sinkDiags []analysis.Diagnostic

// TestRoundTripAllocationCeiling keeps the second copy of the kernel from
// coming back: the round-trip check may allocate its byte buffer and a
// header's worth (label map, interned names, one scratch instruction), and
// nothing that grows with the instruction count beyond the bytes.
func TestRoundTripAllocationCeiling(t *testing.T) {
	k := sgemmMemdiv(t).Kernel
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	perCall := allocPerCall(func() { sinkDiags = analysis.CheckRoundTripEncoding(k) })
	// The allocator rounds the byte buffer up to a size class (at most an
	// eighth) or, past 32 KiB, to an 8 KiB page.
	ceiling := uint64(len(data))*9/8 + 8192 + 128*uint64(len(k.Labels)+len(k.Params))
	materialized := uint64(len(k.Instrs)) * uint64(unsafe.Sizeof(k.Instrs[0]))
	t.Logf("%d instrs, %d labels, %d B encoded: %d B/call; ceiling %d B, a decoded instruction array alone %d B",
		len(k.Instrs), len(k.Labels), len(data), perCall, ceiling, materialized)
	if perCall > ceiling {
		t.Errorf("CheckRoundTripEncoding allocates %d B per call, ceiling 9/8·encoded size + 8192 + 128·(labels+params) = %d B", perCall, ceiling)
	}
}

var sinkReads []analysis.UninitRead

// TestDefiniteAssignmentAllocationCeiling keeps the per-instruction bitset
// copies from coming back: definite assignment may allocate a few regspace
// bitsets per basic block (gen sets and the two solves' IN/OUT) plus the
// reads it reports, never anything per instruction.
func TestDefiniteAssignmentAllocationCeiling(t *testing.T) {
	cfg := sgemmMemdiv(t)
	var reads []analysis.UninitRead
	perCall := allocPerCall(func() { reads = analysis.MaybeUninitReads(cfg); sinkReads = reads })
	regspace := uint64(len(analysis.NewBits(analysis.CCBit()+1))) * 8
	// Bitsets and their slice headers per block, append-doubling of the result.
	ceiling := 8*uint64(len(cfg.Blocks))*(regspace+24) + 3*uint64(len(reads))*uint64(unsafe.Sizeof(analysis.UninitRead{})) + 2048
	perInstr := uint64(len(cfg.Kernel.Instrs)) * regspace
	t.Logf("%d instrs, %d blocks, %d reads: %d B/call; ceiling %d B, one bitset per instruction %d B",
		len(cfg.Kernel.Instrs), len(cfg.Blocks), len(reads), perCall, ceiling, perInstr)
	if perCall > ceiling {
		t.Errorf("MaybeUninitReads allocates %d B per call, ceiling 8·blocks·(regspace+24) + 3·reads + 2048 = %d B", perCall, ceiling)
	}
}
