package sass

// MemSpace is the statically-known address space of a memory opcode. It is
// the single source of truth shared by the instrumentation site selector
// (sassi.BeforeMem via Opcode.IsMem), the memory-divergence profiler's
// static site filter, and the dependence analysis in
// internal/analysis (BuildDeps) — all of which must agree on which opcodes touch
// memory and where.
type MemSpace uint8

// Address spaces an opcode can be statically attributed to. Generic means
// the space is decoded from the address window at run time (LD/ST and the
// global-flavored ops all take generic addresses, so a "global" load can
// legally hit the shared or local window).
const (
	MemNone MemSpace = iota
	MemGeneric
	MemGlobal
	MemShared
	MemLocal
	MemConst
	MemTexture
)

var memSpaceNames = [...]string{
	"none", "generic", "global", "shared", "local", "const", "texture",
}

func (s MemSpace) String() string {
	if int(s) < len(memSpaceNames) {
		return memSpaceNames[s]
	}
	return "MemSpace(?)"
}

// memClass is one opcode's memory behaviour.
type memClass struct {
	space   MemSpace
	read    bool
	write   bool
	atomic  bool
	texture bool
}

// memClasses is the per-opcode classification table. Opcodes absent from
// the table do not touch memory (MemNone). TestMemClassExhaustive pins
// that every defined opcode has a deliberate entry here or is a known
// non-memory op, so adding an opcode without classifying it fails CI.
var memClasses = [opCount]memClass{
	OpLD:    {space: MemGeneric, read: true},
	OpST:    {space: MemGeneric, write: true},
	OpLDG:   {space: MemGlobal, read: true},
	OpSTG:   {space: MemGlobal, write: true},
	OpLDL:   {space: MemLocal, read: true},
	OpSTL:   {space: MemLocal, write: true},
	OpLDS:   {space: MemShared, read: true},
	OpSTS:   {space: MemShared, write: true},
	OpLDC:   {space: MemConst, read: true},
	OpATOM:  {space: MemGlobal, read: true, write: true, atomic: true},
	OpATOMS: {space: MemShared, read: true, write: true, atomic: true},
	OpRED:   {space: MemGlobal, write: true, atomic: true},
	OpTLD:   {space: MemTexture, read: true, texture: true},
}

// MemSpaceOf returns the statically-known address space of the opcode, or
// MemNone for non-memory opcodes.
func MemSpaceOf(o Opcode) MemSpace {
	if int(o) >= len(memClasses) {
		return MemNone
	}
	return memClasses[o].space
}

// IsMemoryOp reports whether the opcode touches memory. It is the
// table-driven equivalent of IsMem, exported under the name the
// SASSIBeforeParams-style query methods use.
func IsMemoryOp(o Opcode) bool { return MemSpaceOf(o) != MemNone }
