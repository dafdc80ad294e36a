package pcsamp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"sassi/internal/sass"
)

// Loc identifies one sampled location: kernel, leaf PC, stall reason, and
// the warp's call stack (return addresses, outermost first, truncated to
// the innermost MaxStack frames).
type Loc struct {
	Kernel string
	PC     int32
	Reason Reason
	Depth  uint8
	Stack  [MaxStack]int32
}

// Counts is the aggregate at one location. Samples is period-weighted, so
// Samples*Period estimates cycles spent there; Lanes is the same weight
// multiplied by the active-lane count, so Lanes/Samples is the mean warp
// occupancy at that location.
type Counts struct {
	Samples uint64
	Lanes   uint64
}

// Profile is a merged, immutable-by-convention sampling profile.
type Profile struct {
	// Period is the sampling cadence in modeled cycles; one sample unit
	// represents Period cycles.
	Period uint64
	// Launches counts kernel launches folded into the profile.
	Launches uint64
	// TruncatedStacks counts samples whose call stack exceeded MaxStack.
	TruncatedStacks uint64
	// Locs maps each sampled location to its aggregate.
	Locs map[Loc]Counts

	// kernels backs symbolization (name -> SASS, read-only).
	kernels map[string]*sass.Kernel
}

func newProfile(period uint64) *Profile {
	return &Profile{
		Period:  period,
		Locs:    make(map[Loc]Counts),
		kernels: make(map[string]*sass.Kernel),
	}
}

// Clone deep-copies the location map (kernel pointers are shared; SASS is
// read-only after compilation).
func (p *Profile) Clone() *Profile {
	q := newProfile(p.Period)
	q.Launches = p.Launches
	q.TruncatedStacks = p.TruncatedStacks
	for l, c := range p.Locs {
		q.Locs[l] = c
	}
	for n, k := range p.kernels {
		q.kernels[n] = k
	}
	return q
}

// Sub returns the delta profile p-base: what accumulated after base was
// snapshotted. Counts saturate at zero, so a stale base cannot underflow.
func (p *Profile) Sub(base *Profile) *Profile {
	q := p.Clone()
	if base == nil {
		return q
	}
	if base.Launches < q.Launches {
		q.Launches -= base.Launches
	} else {
		q.Launches = 0
	}
	if base.TruncatedStacks < q.TruncatedStacks {
		q.TruncatedStacks -= base.TruncatedStacks
	} else {
		q.TruncatedStacks = 0
	}
	for l, bc := range base.Locs {
		c, ok := q.Locs[l]
		if !ok {
			continue
		}
		if c.Samples > bc.Samples {
			c.Samples -= bc.Samples
		} else {
			c.Samples = 0
		}
		if c.Lanes > bc.Lanes {
			c.Lanes -= bc.Lanes
		} else {
			c.Lanes = 0
		}
		if c.Samples == 0 && c.Lanes == 0 {
			delete(q.Locs, l)
		} else {
			q.Locs[l] = c
		}
	}
	return q
}

// TotalSamples sums the period-weighted sample count.
func (p *Profile) TotalSamples() uint64 {
	var n uint64
	for _, c := range p.Locs {
		n += c.Samples
	}
	return n
}

// PCKey identifies one static instruction across the profile's kernels.
type PCKey struct {
	Kernel string
	PC     int32
}

// PCCycles flattens the profile to estimated cycles per static
// instruction, summing over stall reasons and call stacks. At period 1
// the estimate is exact.
func (p *Profile) PCCycles() map[PCKey]uint64 {
	out := make(map[PCKey]uint64)
	for l, c := range p.Locs {
		out[PCKey{l.Kernel, l.PC}] += c.Samples * p.Period
	}
	return out
}

// sortedLocs returns the locations in a canonical order so every export
// is byte-deterministic.
func (p *Profile) sortedLocs() []Loc {
	locs := make([]Loc, 0, len(p.Locs))
	for l := range p.Locs {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		a, b := &locs[i], &locs[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Reason != b.Reason {
			return a.Reason < b.Reason
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		return a.Stack != b.Stack && less(a.Stack, b.Stack)
	})
	return locs
}

func less(a, b [MaxStack]int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// symbolizer resolves profile locations to human frames via the kernels'
// SASS and control-flow graphs (built lazily, one per kernel).
type symbolizer struct {
	kernels map[string]*sass.Kernel
	cfgs    map[string]*sass.CFG
}

func newSymbolizer(kernels map[string]*sass.Kernel) *symbolizer {
	return &symbolizer{kernels: kernels, cfgs: make(map[string]*sass.CFG)}
}

func (s *symbolizer) cfg(kernel string) *sass.CFG {
	if c, ok := s.cfgs[kernel]; ok {
		return c
	}
	var c *sass.CFG
	if k := s.kernels[kernel]; k != nil {
		c, _ = sass.BuildCFG(k) // nil on malformed SASS: frames lose bb tags only
	}
	s.cfgs[kernel] = c
	return c
}

// frames renders a location root-first: kernel, one frame per call-stack
// entry, then the leaf instruction (basic block, offset, opcode).
func (s *symbolizer) frames(l Loc) []string {
	k := s.kernels[l.Kernel]
	out := make([]string, 0, int(l.Depth)+2)
	out = append(out, l.Kernel)
	for i := 0; i < int(l.Depth); i++ {
		out = append(out, callFrame(k, int(l.Stack[i])))
	}
	out = append(out, s.leafFrame(k, l))
	return out
}

// callFrame names the function a return address points back out of: the
// CAL immediately before the return address names the callee's entry
// label. Unresolvable frames degrade to the raw return offset.
func callFrame(k *sass.Kernel, ra int) string {
	if k != nil && ra >= 1 && ra-1 < len(k.Instrs) {
		in := &k.Instrs[ra-1]
		if in.Op == sass.OpCAL {
			if t, ok := in.BranchTarget(); ok {
				ti := int(t.Imm)
				if names := k.LabelAt(ti); len(names) > 0 {
					return names[0]
				}
				return fmt.Sprintf("fn_%04x", uint32(sass.InsOffset(ti)))
			}
		}
	}
	return fmt.Sprintf("ret_%04x", uint32(sass.InsOffset(ra)))
}

func (s *symbolizer) leafFrame(k *sass.Kernel, l Loc) string {
	pc := int(l.PC)
	if k == nil || pc < 0 || pc >= len(k.Instrs) {
		return fmt.Sprintf("pc_%04x", uint32(sass.InsOffset(pc)))
	}
	op := k.Instrs[pc].Op.String()
	if cfg := s.cfg(l.Kernel); cfg != nil {
		if b := cfg.BlockOf(pc); b != nil {
			return fmt.Sprintf("bb%d:0x%04x:%s", b.ID, uint32(sass.InsOffset(pc)), op)
		}
	}
	return fmt.Sprintf("0x%04x:%s", uint32(sass.InsOffset(pc)), op)
}

// WriteFolded writes the profile in Brendan Gregg's folded-stack format:
// one "frame;frame;...;leaf count" line per stack, semicolon-separated
// root-first, sorted, with counts in period-weighted samples. Stalled
// locations grow a final "stall:<reason>" frame so flamegraphs attribute
// wait time visually. Pipe into flamegraph.pl (or any folded-stack
// consumer) for an SVG.
func (p *Profile) WriteFolded(w io.Writer) error {
	sym := newSymbolizer(p.kernels)
	lines := make(map[string]uint64, len(p.Locs))
	for _, l := range p.sortedLocs() {
		frames := sym.frames(l)
		if l.Reason != ReasonNone {
			frames = append(frames, "stall:"+l.Reason.String())
		}
		lines[strings.Join(frames, ";")] += p.Locs[l].Samples
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		fmt.Fprintf(bw, "%s %d\n", k, lines[k])
	}
	return bw.Flush()
}
