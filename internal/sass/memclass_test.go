package sass

import "testing"

// TestMemClassExhaustive pins that every Defined opcode is deliberately
// classified: either it has a memClasses entry (a memory op) or it is on
// the explicit non-memory list below. Adding an opcode without deciding
// its memory behaviour fails here, which is the contract that keeps the
// instrumentation site selector, the memory-divergence profiler, and the
// dependence analysis agreeing on what a "memory op" is.
func TestMemClassExhaustive(t *testing.T) {
	nonMem := map[Opcode]bool{
		OpNOP: true, OpIADD: true, OpIADD32: true, OpIMUL: true,
		OpIMAD: true, OpISCADD: true, OpISETP: true, OpIMNMX: true,
		OpLOP: true, OpSHL: true, OpSHR: true, OpBFE: true, OpBFI: true,
		OpFLO: true, OpPOPC: true, OpSEL: true, OpMOV: true, OpMOV32: true,
		OpS2R: true, OpP2R: true, OpR2P: true, OpPSETP: true,
		OpFADD: true, OpFMUL: true, OpFFMA: true, OpFSETP: true,
		OpFMNMX: true, OpMUFU: true, OpF2I: true, OpI2F: true, OpF2F: true,
		OpBRA: true, OpSSY: true, OpSYNC: true,
		OpCAL: true, OpJCAL: true, OpRET: true, OpEXIT: true, OpBAR: true,
		OpVOTE: true, OpSHFL: true,
	}
	for op := Opcode(0); op < opCount; op++ {
		if !op.Defined() {
			continue
		}
		classified := IsMemoryOp(op)
		listed := nonMem[op]
		if classified == listed {
			t.Errorf("%s: memClasses entry = %v, on non-memory list = %v; every opcode needs exactly one",
				op, classified, listed)
		}
		if !classified {
			continue
		}
		c := memClasses[op]
		if !c.read && !c.write {
			t.Errorf("%s: memory op classified as neither read nor write", op)
		}
		if c.space == MemNone {
			t.Errorf("%s: memory op with MemNone space", op)
		}
	}
}

// TestMemClassMatchesQueries pins the legacy IsMem* query methods to the
// table so the two can never drift apart again.
func TestMemClassMatchesQueries(t *testing.T) {
	for op := Opcode(0); op < opCount; op++ {
		if op.IsMem() != IsMemoryOp(op) {
			t.Errorf("%s: IsMem() != IsMemoryOp()", op)
		}
		if op.IsAtomic() && !op.IsMem() {
			t.Errorf("%s: atomic but not a memory op", op)
		}
		if op.IsTexture() && MemSpaceOf(op) != MemTexture {
			t.Errorf("%s: IsTexture disagrees with MemSpaceOf", op)
		}
		if op.IsSpillOrFill() != (MemSpaceOf(op) == MemLocal) {
			t.Errorf("%s: IsSpillOrFill disagrees with MemSpaceOf", op)
		}
		if (op.IsMemRead() || op.IsMemWrite()) != op.IsMem() {
			t.Errorf("%s: read/write flags disagree with IsMem", op)
		}
	}
}
