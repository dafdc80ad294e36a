package sass

// Regression tests for latent bugs surfaced while bringing up the static
// verifier (internal/analysis): each encodes a behavior the verifier's
// checks depend on.

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// A guarded EXIT only retires the lanes whose guard passes; the rest fall
// through. The CFG must model that edge, or values read after the EXIT
// appear dead at instrumentation sites before it and get clobbered.
func TestGuardedExitFallsThrough(t *testing.T) {
	k := buildKernel(t, nil,
		New(OpEXIT, nil, nil).WithGuard(PredGuard{Reg: 0}),    // 0: @P0 EXIT
		New(OpIADD, []Operand{R(2)}, []Operand{R(3), Imm(1)}), // 1: reads R3
		New(OpEXIT, nil, nil),                                 // 2
	)
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	b0 := cfg.BlockOf(0)
	found := false
	for _, s := range b0.Succs {
		if cfg.Blocks[s].Start == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("guarded EXIT block has no fallthrough successor")
	}
	li := livenessOf(t, k)
	if !li.LiveIn[0].Has(3) {
		t.Error("R3 is read past the guarded EXIT and must be live at entry")
	}
}

// An unconditional EXIT really terminates: no fallthrough edge, nothing
// past it live.
func TestUnconditionalExitTerminates(t *testing.T) {
	k := buildKernel(t, nil,
		New(OpEXIT, nil, nil), // 0
		New(OpIADD, []Operand{R(2)}, []Operand{R(3), Imm(1)}), // 1: unreachable
		New(OpEXIT, nil, nil), // 2
	)
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cfg.BlockOf(0).Succs); n != 0 {
		t.Fatalf("unconditional EXIT block has %d successors, want 0", n)
	}
	li := livenessOf(t, k)
	if li.LiveIn[0].Has(3) {
		t.Error("R3 is only read in unreachable code; it must not be live at entry")
	}
}

// A register whose first write is predicated merges the old value only if
// the register may have been assigned on some path. An if-converted
// temporary must therefore NOT be live back to kernel entry — otherwise
// every instrumentation site before it would pointlessly spill garbage.
func TestPredicatedFirstWriteNotLiveAtEntry(t *testing.T) {
	k := buildKernel(t, nil,
		New(OpISETP, []Operand{P(0)}, []Operand{R(2), Imm(0), P(PT)}),                 // 0
		New(OpMOV32, []Operand{R(5)}, []Operand{Imm(1)}).WithGuard(PredGuard{Reg: 0}), // 1: first write of R5, guarded
		New(OpEXIT, nil, nil), // 2
	)
	li := livenessOf(t, k)
	if li.LiveIn[0].Has(5) {
		t.Error("R5's first write is the predicated MOV; it must not be live at entry")
	}

	// Contrast: once R5 may have been assigned, a predicated write does
	// merge the old value and keeps it live.
	k2 := buildKernel(t, nil,
		New(OpISETP, []Operand{P(0)}, []Operand{R(2), Imm(0), P(PT)}),                 // 0
		New(OpMOV32, []Operand{R(5)}, []Operand{Imm(9)}),                              // 1: unconditional write
		New(OpMOV32, []Operand{R(5)}, []Operand{Imm(1)}).WithGuard(PredGuard{Reg: 0}), // 2: merge
		New(OpST, nil, []Operand{Mem(3, 0), R(5)}),                                    // 3
		New(OpEXIT, nil, nil),
	)
	li2 := livenessOf(t, k2)
	if !li2.LiveIn[2].Has(5) {
		t.Error("R5 assigned at 1 and merged at 2: it must be live between them")
	}
}

// corruptHeader builds a syntactically valid encoding prefix with a chosen
// trailing element count.
func corruptHeader(counts ...uint32) []byte {
	var b bytes.Buffer
	b.WriteString("SASSKRN1")
	wu32 := func(v uint32) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], v)
		b.Write(n[:])
	}
	wu32(1)
	b.WriteByte('k') // name "k"
	wu32(8)          // NumRegs
	wu32(2)          // NumPreds
	wu32(0)          // SharedBytes
	wu32(0)          // LocalBytes
	for _, c := range counts {
		wu32(c)
	}
	return b.Bytes()
}

// A corrupted element count must be rejected before it drives a giant
// allocation (the decoder caps counts by the bytes remaining).
func TestUnmarshalRejectsOversizedCounts(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"params", corruptHeader(0xfffffff0)},
		{"labels", corruptHeader(0, 0xfffffff0)},
		{"instrs", corruptHeader(0, 0, 0xfffffff0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var k Kernel
			err := k.UnmarshalBinary(c.data)
			if err == nil {
				t.Fatal("oversized count accepted")
			}
			if !strings.Contains(err.Error(), "exceeds remaining input") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// Truncation anywhere in the stream must produce an error, never a panic
// or a silently short kernel.
func TestUnmarshalRejectsTruncation(t *testing.T) {
	k := buildKernel(t, map[string]int{"l": 1},
		New(OpMOV32, []Operand{R(2)}, []Operand{Imm(7)}),
		New(OpEXIT, nil, nil),
	)
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		var dec Kernel
		if err := dec.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(data))
		}
	}
	var dec Kernel
	if err := dec.UnmarshalBinary(data); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}

// Any single corrupted byte must produce an error or a kernel, never a
// panic: a changed length or count word shifts everything after it, so the
// decoder meets short reads in the middle of an operand as well as at
// element boundaries.
func TestUnmarshalSurvivesEveryByteCorruption(t *testing.T) {
	k := buildKernel(t, map[string]int{"l": 1},
		New(OpMOV32, []Operand{R(2)}, []Operand{Imm(7)}),
		New(OpBRA, nil, []Operand{Label("l"), R(3)}),
		New(OpJCAL, nil, []Operand{Sym("handler"), R(4)}),
		New(OpEXIT, nil, nil),
	)
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for pos := range data {
		for v := 0; v < 256; v++ {
			bad := append([]byte(nil), data...)
			bad[pos] = byte(v)
			var dec Kernel
			_ = dec.UnmarshalBinary(bad)
		}
	}
}
