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
