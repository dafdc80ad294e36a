package analysis_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
	"sassi/internal/workloads"
)

// goldenKernels compiles the kernels testdata/valuation.golden records —
// every workload, uninstrumented and under each recorded tool — or only the
// named variants of them.
func goldenKernels(t testing.TB, variants ...string) []*sass.Kernel {
	var ks []*sass.Kernel
	for _, name := range workloads.Names() {
		for _, v := range goldenVariants(name) {
			if len(variants) == 0 || slices.Contains(variants, v.name) {
				ks = append(ks, compileVariant(t, name, v).Kernels...)
			}
		}
	}
	return ks
}

// TestMarshalBinaryDeterministic: one kernel, one encoding. Labels live in a
// map; the encoder must not let its iteration order into the bytes.
func TestMarshalBinaryDeterministic(t *testing.T) {
	for _, k := range goldenKernels(t, "base", "branch") {
		want, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 8; i++ {
			got, err := k.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s (%d labels): encoding %d differs from the first", k.Name, len(k.Labels), i)
				break
			}
		}
	}
}

// countOffsets locates the three element-count words of k's encoding:
// parameters, labels, instructions.
func countOffsets(k *sass.Kernel) [3]int {
	params := len("SASSKRN1") + 4 + len(k.Name) + 4*4
	labels := params + 4
	for _, p := range k.Params {
		labels += 12 + len(p.Name)
	}
	instrs := labels + 4
	for name := range k.Labels {
		instrs += 8 + len(name)
	}
	return [3]int{params, labels, instrs}
}

// FuzzKernelUnmarshal: whatever bytes arrive, UnmarshalBinary returns an
// error or a kernel — never panics, never allocates out of proportion to
// its input — and a kernel it accepts re-encodes to something that decodes
// to the same kernel, on which the instruction-at-a-time decoder agrees
// instruction for instruction.
func FuzzKernelUnmarshal(f *testing.F) {
	for _, k := range goldenKernels(f) {
		data, err := k.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if len(data) > 1<<14 {
			continue // corruptions of the small kernels cover the same fields
		}
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		for _, off := range countOffsets(k) {
			for _, v := range []uint32{binary.LittleEndian.Uint32(data[off:]) + 1, 0xfffffff0, 1 << 31} {
				bad := bytes.Clone(data)
				binary.LittleEndian.PutUint32(bad[off:], v)
				f.Add(bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var k sass.Kernel
		err := k.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		// An instruction decodes to 80 bytes from at least 13, an operand to
		// 32 from at least 17, a label to a map entry from at least 8.
		if got, ceiling := after.TotalAlloc-before.TotalAlloc, 32*uint64(len(data))+1<<16; got > ceiling {
			t.Fatalf("decoding %d bytes allocated %d (ceiling %d)", len(data), got, ceiling)
		}
		if err != nil {
			return
		}
		again, err := k.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted kernel does not re-encode: %v", err)
		}
		var back sass.Kernel
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if diags := analysis.DiffKernels(&k, &back, analysis.CheckRoundTrip); len(diags) != 0 {
			t.Fatalf("re-encoding decodes to a different kernel: %v", diags)
		}
		streamed := sass.Kernel{}
		dec, err := sass.DecodeKernelHeader(data, &streamed)
		if err != nil {
			t.Fatalf("UnmarshalBinary accepted what DecodeKernelHeader rejects: %v", err)
		}
		var scratch sass.Instruction
		for dec.Len() > 0 {
			if err := dec.Next(&scratch); err != nil {
				t.Fatalf("UnmarshalBinary accepted what the streaming decoder rejects: %v", err)
			}
			streamed.Instrs = append(streamed.Instrs, scratch.Clone())
		}
		if diags := analysis.DiffKernels(&k, &streamed, analysis.CheckRoundTrip); len(diags) != 0 {
			t.Fatalf("streaming decoder disagrees with UnmarshalBinary: %v", diags)
		}
	})
}
