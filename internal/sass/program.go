package sass

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ParamDesc describes one kernel parameter as laid out in constant bank 0.
// Parameters begin at ParamBase and are packed with natural alignment,
// mirroring the CUDA ABI's use of constant memory for kernel arguments.
type ParamDesc struct {
	Name   string
	Size   int // bytes: 4 or 8
	Offset int // byte offset within constant bank 0
}

// Constant-bank-0 layout. Low offsets hold launch metadata that compiled
// code may read (mirroring NVIDIA's c[0x0][...] conventions), followed by
// the kernel parameters.
const (
	// CBStackBase is the offset of the generic-window base of local memory.
	// ORing it into a local byte offset forms a generic address (Figure 2,
	// step 4 of the paper uses LOP.OR R4, R1, c[0x0][0x24] for this).
	CBStackBase = 0x24
	// CBSharedBase is the generic-window base of shared memory.
	CBSharedBase = 0x28
	// ParamBase is where kernel parameters start in constant bank 0.
	ParamBase = 0x140
)

// MinRegs is the fewest registers a launch gives a thread, whatever its
// kernel's NumRegs; Verify holds a kernel that states no NumRegs to it.
const MinRegs = 16

// The bounds Kernel.CheckResources holds a kernel's resource fields to,
// CUDA's own.
const (
	// ParamBytes is the parameter space that starts at ParamBase (CUDA's
	// 4 KB kernel-parameter limit).
	ParamBytes = 4096
	// MaxLocalBytes is the most local memory a kernel may ask of each
	// thread (CUDA's 512 KiB per-thread limit).
	MaxLocalBytes = 512 << 10
)

// Kernel is one compiled GPU entry point: a flat instruction sequence plus
// the resources the launch needs to reserve.
type Kernel struct {
	Name   string
	Instrs []Instruction

	// Labels maps a label name to the index of the instruction it precedes.
	Labels map[string]int

	// NumRegs is the per-thread GPR count chosen by register allocation.
	NumRegs int
	// NumPreds is the per-thread predicate register count in use.
	NumPreds int
	// SharedBytes is the static shared-memory requirement per CTA.
	SharedBytes int
	// LocalBytes is the per-thread local (stack) requirement, excluding
	// any instrumentation frames which are sized separately.
	LocalBytes int
	// Params describes the kernel parameter layout in constant bank 0.
	Params []ParamDesc

	// BlockDim is an optional launch-shape hint (the CTA dimensions the
	// kernel is written for, à la __launch_bounds__), consumed by static
	// analyses that bound tid ranges. Zero means unknown. It is advisory
	// compile-time metadata and is deliberately NOT serialized by
	// MarshalBinary: a .sasskrn file carries only the machine code.
	BlockDim [3]int

	// SchedOrig, when non-nil, records that the instruction stream was
	// reordered by the ptxas scheduling pass: SchedOrig[pos] is the index
	// the instruction now at pos held in the original (pre-scheduling)
	// order. The `schedule` verifier check (internal/analysis) uses
	// it to certify the reordering against the dependence DAG of the
	// reconstructed original. Like BlockDim it is compile-time metadata,
	// not serialized, and it must be dropped by any pass that edits the
	// instruction stream afterwards (sassi.Instrument clears it).
	SchedOrig []int

	lowered lowering
}

// lowering is the kernel's cache slot for the form an executor derives from
// Instrs (the simulator's predecoded kernel). It sits on the kernel so that
// it lives exactly as long as the kernel does and is shared by every device
// that launches it.
type lowering struct {
	mu    sync.Mutex
	first *Instruction // identity of the Instrs array v was built from
	n     int
	v     any
}

// Lowered returns build(k) for the kernel's current instruction stream,
// calling build only when there is no cached value or Instrs has been
// replaced since it was built: sassi.Instrument and the scheduler rewrite a
// kernel under the same *Kernel by installing a new Instrs slice, which
// changes the array's address or length. (The slot keeps the old array
// reachable, so its address cannot be reused while the value is cached.)
// A pass that edits instructions inside the existing array after the kernel
// has been launched is not detected; none does. Concurrent callers are
// serialized, so build runs once per instruction stream.
func (k *Kernel) Lowered(build func(*Kernel) any) any {
	c := &k.lowered
	c.mu.Lock()
	defer c.mu.Unlock()
	var first *Instruction
	if len(k.Instrs) > 0 {
		first = &k.Instrs[0]
	}
	if c.v == nil || c.first != first || c.n != len(k.Instrs) {
		c.v, c.first, c.n = build(k), first, len(k.Instrs)
	}
	return c.v
}

// Clone returns a deep copy of the kernel sharing no mutable state, so the
// copy survives in-place rewrites (e.g. instrumentation) of the original.
func (k *Kernel) Clone() *Kernel {
	c := &Kernel{
		Name: k.Name, NumRegs: k.NumRegs, NumPreds: k.NumPreds,
		SharedBytes: k.SharedBytes, LocalBytes: k.LocalBytes, BlockDim: k.BlockDim,
		Instrs:    make([]Instruction, len(k.Instrs)),
		Params:    append([]ParamDesc(nil), k.Params...),
		SchedOrig: append([]int(nil), k.SchedOrig...),
	}
	for i := range k.Instrs {
		c.Instrs[i] = k.Instrs[i].Clone()
	}
	if k.Labels != nil {
		c.Labels = make(map[string]int, len(k.Labels))
		for name, idx := range k.Labels {
			c.Labels[name] = idx
		}
	}
	return c
}

// AddParam appends a parameter with natural alignment and returns its
// constant-bank offset.
func (k *Kernel) AddParam(name string, size int) int {
	off := ParamBase
	if n := len(k.Params); n > 0 {
		last := k.Params[n-1]
		off = last.Offset + last.Size
	}
	if size == 8 && off%8 != 0 {
		off += 8 - off%8
	}
	k.Params = append(k.Params, ParamDesc{Name: name, Size: size, Offset: off})
	return off
}

// CheckResources judges the resource fields a launch sizes a kernel's
// state from: every parameter is 4 or 8 bytes, at or past ParamBase,
// aligned to its size and ending within ParamBytes of ParamBase, and
// LocalBytes lies in [0, MaxLocalBytes]. Verify's structural check and the
// launch both call it, as they call CheckInstr, so they refuse the same
// kernels with the same message.
func (k *Kernel) CheckResources() error {
	for i, p := range k.Params {
		switch {
		case p.Size != 4 && p.Size != 8:
			return fmt.Errorf("parameter %d (%s) is %d bytes, not 4 or 8", i, p.Name, p.Size)
		case p.Offset < ParamBase || p.Offset%p.Size != 0:
			return fmt.Errorf("parameter %d (%s) at %#x is not %d-byte aligned at or past %#x", i, p.Name, p.Offset, p.Size, ParamBase)
		case p.Offset > ParamBase+ParamBytes-p.Size:
			return fmt.Errorf("parameter %d (%s) at %#x ends past the %d-byte parameter space at %#x", i, p.Name, p.Offset, ParamBytes, ParamBase)
		}
	}
	if k.LocalBytes < 0 || k.LocalBytes > MaxLocalBytes {
		return fmt.Errorf("LocalBytes %d is outside the per-thread local limit of %d", k.LocalBytes, MaxLocalBytes)
	}
	return nil
}

// ParamOffset returns the constant-bank offset of a named parameter.
func (k *Kernel) ParamOffset(name string) (int, bool) {
	for _, p := range k.Params {
		if p.Name == name {
			return p.Offset, true
		}
	}
	return 0, false
}

// ResolveLabels rewrites label operands to hold the instruction index they
// refer to. It reports an error for dangling labels.
func (k *Kernel) ResolveLabels() error {
	for i := range k.Instrs {
		in := &k.Instrs[i]
		for s := range in.Srcs {
			opd := &in.Srcs[s]
			if opd.Kind != OpdLabel || opd.Name == "" {
				continue
			}
			idx, ok := k.Labels[opd.Name]
			if !ok {
				return fmt.Errorf("kernel %s: instruction %d references undefined label %q", k.Name, i, opd.Name)
			}
			opd.Imm = int64(idx)
		}
	}
	return nil
}

// LabelAt returns the labels attached to an instruction index, sorted.
func (k *Kernel) LabelAt(idx int) []string {
	var out []string
	for name, i := range k.Labels {
		if i == idx {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// InsOffset converts an instruction index into a byte offset from the
// kernel start. Each SASS instruction occupies 8 bytes, as on Kepler.
func InsOffset(idx int) int32 { return int32(idx) * 8 }

// IndexOfOffset converts a byte offset back to an instruction index.
func IndexOfOffset(off int32) int { return int(off) / 8 }

// Disassemble renders the kernel as SASS-like assembly text.
func (k *Kernel) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n", k.Name)
	for _, p := range k.Params {
		fmt.Fprintf(&b, ".param %s %d // c[0x0][0x%x]\n", p.Name, p.Size, p.Offset)
	}
	if k.SharedBytes > 0 {
		fmt.Fprintf(&b, ".shared %d\n", k.SharedBytes)
	}
	if k.LocalBytes > 0 {
		fmt.Fprintf(&b, ".local %d\n", k.LocalBytes)
	}
	for i := range k.Instrs {
		for _, l := range k.LabelAt(i) {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "    /*%04x*/ %s\n", InsOffset(i), k.Instrs[i].String())
	}
	for _, l := range k.LabelAt(len(k.Instrs)) {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	return b.String()
}

// Program is a linked unit: kernels plus the symbols (instrumentation
// handlers) its JCALs refer to.
type Program struct {
	Kernels []*Kernel

	// Handlers maps JCAL symbol names to dense handler IDs assigned at
	// link time; the simulator dispatches through this table.
	Handlers map[string]int
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Handlers: make(map[string]int)}
}

// Clone returns a deep copy of the program sharing no mutable state
// (Kernel.Clone of every kernel), so that the copy can be instrumented
// while the original is in use.
func (p *Program) Clone() *Program {
	c := &Program{Kernels: make([]*Kernel, len(p.Kernels)), Handlers: make(map[string]int, len(p.Handlers))}
	for i, k := range p.Kernels {
		c.Kernels[i] = k.Clone()
	}
	for sym, id := range p.Handlers {
		c.Handlers[sym] = id
	}
	return c
}

// AddKernel appends a kernel.
func (p *Program) AddKernel(k *Kernel) { p.Kernels = append(p.Kernels, k) }

// Kernel returns the named kernel.
func (p *Program) Kernel(name string) (*Kernel, bool) {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return nil, false
}

// InternHandler assigns (or returns) the dense ID for a handler symbol.
func (p *Program) InternHandler(sym string) int {
	if id, ok := p.Handlers[sym]; ok {
		return id
	}
	id := len(p.Handlers)
	p.Handlers[sym] = id
	return id
}
