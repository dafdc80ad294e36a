package analysis

import (
	"fmt"

	"sassi/internal/sass"
)

// CheckRoundTripEncoding serializes the kernel with MarshalBinary, decodes
// the bytes again one instruction at a time, and requires the result to be
// semantically identical: every field the encoding carries must survive
// Encode→Decode unchanged. (The Comment field is debug-only and deliberately
// not encoded; it is excluded from the comparison.) The decoded kernel is
// never materialized: each instruction is decoded into one scratch value and
// compared against its original on the spot.
func CheckRoundTripEncoding(k *sass.Kernel) []Diagnostic {
	kernelDiag := func(format string, args ...any) []Diagnostic {
		return []Diagnostic{{
			Sev: Error, Check: CheckRoundTrip, Kernel: k.Name, Instr: -1,
			Msg: fmt.Sprintf(format, args...),
		}}
	}
	data, err := k.MarshalBinary()
	if err != nil {
		return kernelDiag("encode failed: %v", err)
	}
	diags, err := diffEncoding(k, data, CheckRoundTrip)
	if err != nil {
		return kernelDiag("decode of own encoding failed: %v", err)
	}
	return diags
}

// kernelDiff collects the differences between kernel a and another
// rendition of it as error diagnostics positioned in a.
type kernelDiff struct {
	a          *sass.Kernel
	check      string
	diags      []Diagnostic
	instrDiffs int
}

func (d *kernelDiff) bad(i int, format string, args ...any) {
	d.diags = append(d.diags, Diagnostic{
		Sev: Error, Check: d.check, Kernel: d.a.Name, Instr: i,
		Msg: fmt.Sprintf(format, args...),
	})
}

// header compares everything but the instruction stream.
func (d *kernelDiff) header(b *sass.Kernel) {
	a := d.a
	if a.Name != b.Name {
		d.bad(-1, "name %q became %q", a.Name, b.Name)
	}
	if a.NumRegs != b.NumRegs || a.NumPreds != b.NumPreds {
		d.bad(-1, "register counts (%d GPR, %d pred) became (%d, %d)",
			a.NumRegs, a.NumPreds, b.NumRegs, b.NumPreds)
	}
	if a.SharedBytes != b.SharedBytes || a.LocalBytes != b.LocalBytes {
		d.bad(-1, "memory sizes (shared %d, local %d) became (%d, %d)",
			a.SharedBytes, a.LocalBytes, b.SharedBytes, b.LocalBytes)
	}
	if len(a.Params) != len(b.Params) {
		d.bad(-1, "parameter count %d became %d", len(a.Params), len(b.Params))
	} else {
		for i := range a.Params {
			if a.Params[i] != b.Params[i] {
				d.bad(-1, "parameter %d %+v became %+v", i, a.Params[i], b.Params[i])
			}
		}
	}
	if len(a.Labels) != len(b.Labels) {
		d.bad(-1, "label count %d became %d", len(a.Labels), len(b.Labels))
	} else {
		for name, idx := range a.Labels {
			if got, ok := b.Labels[name]; !ok || got != idx {
				d.bad(-1, "label %q index %d became %d (present=%t)", name, idx, got, ok)
			}
		}
	}
}

// sameLen compares the instruction counts; only equal-length streams are
// compared instruction by instruction.
func (d *kernelDiff) sameLen(n int) bool {
	if len(d.a.Instrs) != n {
		d.bad(-1, "instruction count %d became %d", len(d.a.Instrs), n)
		return false
	}
	return true
}

// instr compares a's instruction i against b, reporting the first
// maxInstrDiffs differing instructions.
func (d *kernelDiff) instr(i int, b *sass.Instruction) {
	const maxInstrDiffs = 8
	if d.instrDiffs > maxInstrDiffs {
		return
	}
	if msg := instrDiff(&d.a.Instrs[i], b); msg != "" {
		if d.instrDiffs++; d.instrDiffs > maxInstrDiffs {
			d.bad(-1, "further instruction differences suppressed")
			return
		}
		d.bad(i, "instruction changed: %s", msg)
	}
}

// DiffKernels compares two kernels field by field and reports every
// difference as an error diagnostic under the given check name,
// positioned in kernel a. The round-trip check makes the same comparison
// against a byte stream (diffEncoding); the round-trip unit tests corrupt a
// decoded copy and expect the differences found by both.
func DiffKernels(a, b *sass.Kernel, check string) []Diagnostic {
	d := kernelDiff{a: a, check: check}
	d.header(b)
	if d.sameLen(len(b.Instrs)) {
		for i := range b.Instrs {
			d.instr(i, &b.Instrs[i])
		}
	}
	return d.diags
}

// diffEncoding is DiffKernels(a, b) for the kernel b that data encodes,
// decoding b one instruction at a time into a scratch value. An encoding
// that does not decode is an error, whatever differences preceded it.
func diffEncoding(a *sass.Kernel, data []byte, check string) ([]Diagnostic, error) {
	d := kernelDiff{a: a, check: check}
	var hdr sass.Kernel
	dec, err := sass.DecodeKernelHeader(data, &hdr)
	if err != nil {
		return nil, err
	}
	d.header(&hdr)
	same := d.sameLen(dec.Len())
	var scratch sass.Instruction
	for i := 0; dec.Len() > 0; i++ {
		if err := dec.Next(&scratch); err != nil {
			return nil, err
		}
		if same {
			d.instr(i, &scratch)
		}
	}
	return d.diags, nil
}

// instrDiff describes the first semantic difference between two
// instructions, or "" if they are equivalent. Comment is ignored; nil and
// empty operand slices are equivalent.
func instrDiff(a, b *sass.Instruction) string {
	if a.Op != b.Op {
		return fmt.Sprintf("opcode %v became %v", a.Op, b.Op)
	}
	if a.Guard != b.Guard {
		return fmt.Sprintf("guard %+v became %+v", a.Guard, b.Guard)
	}
	if a.Mods != b.Mods {
		return fmt.Sprintf("modifiers %+v became %+v", a.Mods, b.Mods)
	}
	if a.Injected != b.Injected {
		return fmt.Sprintf("injected flag %t became %t", a.Injected, b.Injected)
	}
	if msg := operandsDiff("destination", a.Dsts, b.Dsts); msg != "" {
		return msg
	}
	return operandsDiff("source", a.Srcs, b.Srcs)
}

func operandsDiff(what string, a, b []sass.Operand) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s count %d became %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s %d %v became %v", what, i, a[i], b[i])
		}
	}
	return ""
}
