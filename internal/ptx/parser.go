package ptx

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sassi/internal/sass"
)

// Parse reads a kernel in the textual PTX-like assembly format, the
// front-end path for tools that want to feed the compiler without using
// the Go builder API. The format is line-oriented:
//
//	.entry saxpy
//	.param ptr x
//	.param ptr y
//	.param u32 n
//	.shared 1024
//	%i = gtid.x
//	%p = setp.lt.u32 %i %n
//	ssy Ldone
//	@!%p bra Lsync
//	%xa = index %x %i 2
//	%v = ld.global.f32 %xa 0
//	%ya = index %y %i 2
//	%w = ld.global.f32 %ya 0
//	%s = add.f32 %v %w
//	st.global.f32 %ya 0 %s
//	Lsync:
//	sync
//	Ldone:
//	exit
//
// Comments start with '#' or '//'. Guards prefix an instruction with
// @%p or @!%p. Immediate operands are decimal or 0x hex integers for
// integer-typed ops and decimal literals (with '.' or exponent) for .f32.
func Parse(src string) (*Func, error) {
	p := &parser{vals: map[string]Value{}}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("ptx: line %d: %w (in %q)", lineNo+1, err, strings.TrimSpace(raw))
		}
	}
	if p.f == nil {
		return nil, fmt.Errorf("ptx: no .entry directive")
	}
	if n := len(p.f.Instrs); n == 0 || p.f.Instrs[n-1].Op != OpExit {
		p.f.Emit(Instr{Op: OpExit})
	}
	if err := p.f.Verify(); err != nil {
		return nil, err
	}
	return p.f, nil
}

// ParseModule parses a source containing one or more .entry kernels.
func ParseModule(src string) (*Module, error) {
	m := NewModule()
	var chunk []string
	flush := func() error {
		hasEntry := false
		for _, l := range chunk {
			if strings.HasPrefix(strings.TrimSpace(stripComment(l)), ".entry") {
				hasEntry = true
				break
			}
		}
		if !hasEntry {
			// Leading comments/blank lines before the first kernel.
			chunk = nil
			return nil
		}
		f, err := Parse(strings.Join(chunk, "\n"))
		if err != nil {
			return err
		}
		m.Add(f)
		chunk = nil
		return nil
	}
	for _, raw := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(stripComment(raw)), ".entry") {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		chunk = append(chunk, raw)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(m.Funcs) == 0 {
		return nil, fmt.Errorf("ptx: no kernels in module")
	}
	return m, nil
}

func stripComment(s string) string {
	if i := strings.Index(s, "#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

type parser struct {
	f    *Func
	vals map[string]Value
	// fresh is the register the current line defines for the first
	// time; the line cannot read it, since it holds nothing yet.
	fresh string
}

func (p *parser) line(line string) error {
	switch {
	case strings.HasPrefix(line, ".entry"):
		name := strings.TrimSpace(strings.TrimPrefix(line, ".entry"))
		if name == "" {
			return fmt.Errorf("missing kernel name")
		}
		p.f = NewFunc(name)
		return nil
	case p.f == nil:
		return fmt.Errorf("directive before .entry")
	case strings.HasPrefix(line, ".param"):
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return fmt.Errorf(".param wants <type> <name>")
		}
		size := 4
		var t Type
		switch fields[1] {
		case "ptr", "u64":
			size, t = 8, TU64
		case "u32":
			t = TU32
		case "s32":
			t = TS32
		case "f32":
			t = TF32
		default:
			return fmt.Errorf("unknown param type %q", fields[1])
		}
		p.f.AddParam(fields[2], size)
		d := p.f.NewValue(t)
		p.vals["%"+fields[2]] = d
		p.f.Emit(Instr{Op: OpLdParam, Type: t, Dst: d, Param: fields[2]})
		return nil
	case strings.HasPrefix(line, ".shared"):
		n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, ".shared")))
		if err != nil {
			return fmt.Errorf("bad .shared size: %v", err)
		}
		p.f.AllocShared(n)
		return nil
	case strings.HasSuffix(line, ":"):
		p.f.Emit(Instr{Op: OpLabel, Label: strings.TrimSuffix(line, ":")})
		return nil
	}
	return p.instr(line)
}

// instr parses "[@[!]%p] [%dst =] op[.mods] operands...", emits it and
// holds what the line emitted to the PTX rule set (Func.check).
func (p *parser) instr(line string) error {
	var in Instr
	p.fresh = ""
	fields := strings.Fields(line)
	// Guard.
	if strings.HasPrefix(fields[0], "@") {
		g := strings.TrimPrefix(fields[0], "@")
		if strings.HasPrefix(g, "!") {
			in.GuardNeg = true
			g = g[1:]
		}
		gv, ok := p.vals[g]
		if !ok {
			return fmt.Errorf("undefined guard %q", g)
		}
		in.Guard = gv
		fields = fields[1:]
	}
	// Destination.
	var dstName string
	if len(fields) >= 2 && fields[1] == "=" {
		dstName = fields[0]
		if !strings.HasPrefix(dstName, "%") {
			return fmt.Errorf("destination %q must be a %%register", dstName)
		}
		fields = fields[2:]
	}
	if len(fields) == 0 {
		return fmt.Errorf("missing opcode")
	}
	n := len(p.f.Instrs)
	if err := p.parseOp(&in, fields[0], dstName, fields[1:]); err != nil {
		return err
	}
	p.f.Emit(in)
	for i := n; i < len(p.f.Instrs); i++ {
		if err := p.f.check(&p.f.Instrs[i]); err != nil {
			return err
		}
	}
	return nil
}

// typeBySuffix maps type suffixes.
func typeBySuffix(s string) (Type, bool) {
	switch s {
	case "u32":
		return TU32, true
	case "s32":
		return TS32, true
	case "f32":
		return TF32, true
	case "u64":
		return TU64, true
	}
	return TInvalid, false
}

var srByName = map[string]sass.SpecialReg{
	"tid.x": sass.SRTidX, "tid.y": sass.SRTidY, "tid.z": sass.SRTidZ,
	"ctaid.x": sass.SRCtaidX, "ctaid.y": sass.SRCtaidY, "ctaid.z": sass.SRCtaidZ,
	"ntid.x": sass.SRNTidX, "ntid.y": sass.SRNTidY,
	"nctaid.x": sass.SRNCtaidX, "laneid": sass.SRLaneID,
}

var binOps = map[string]Op{
	"add": OpAdd, "sub": OpSub, "mul": OpMul, "min": OpMin, "max": OpMax,
	"and": OpAnd, "or": OpOr, "xor": OpXor, "shl": OpShl, "shr": OpShr,
}

var mufuOps = map[string]sass.MufuFunc{
	"rcp": sass.MufuRCP, "sqrt": sass.MufuSQRT, "rsq": sass.MufuRSQ,
	"sin": sass.MufuSIN, "cos": sass.MufuCOS, "ex2": sass.MufuEX2,
	"lg2": sass.MufuLG2,
}

var spaceByName = map[string]Space{
	"global": SpGlobal, "shared": SpShared, "local": SpLocal, "generic": SpGeneric,
}

var atomOps = map[string]sass.AtomOp{
	"add": sass.AtomADD, "min": sass.AtomMIN, "max": sass.AtomMAX,
	"and": sass.AtomAND, "or": sass.AtomOR, "xor": sass.AtomXOR,
	"exch": sass.AtomEXCH,
}

// defDst allocates the destination value.
func (p *parser) defDst(in *Instr, name string, t Type) error {
	if name == "" {
		return fmt.Errorf("op needs a destination")
	}
	if old, exists := p.vals[name]; exists {
		// Redefinition (mutable variable): reuse the value if the type
		// agrees.
		if p.f.TypeOf(old) != t {
			return fmt.Errorf("%s redefined with different type", name)
		}
		in.Dst = old
		return nil
	}
	d := p.f.NewValue(t)
	p.vals[name] = d
	p.fresh = name
	in.Dst = d
	return nil
}

// operand resolves a register reference, or an immediate of type t.
func (p *parser) operand(in *Instr, tok string, t Type, slot *Value) error {
	if strings.HasPrefix(tok, "%") {
		v, err := p.register(tok)
		*slot = v
		return err
	}
	// Immediate: only legal in the B slot.
	if slot != &in.B {
		return fmt.Errorf("immediate %q not allowed here", tok)
	}
	if t == TF32 {
		f, err := strconv.ParseFloat(tok, 32)
		if err != nil {
			return fmt.Errorf("bad float %q", tok)
		}
		in.Imm = int64(int32(math.Float32bits(float32(f))))
	} else {
		v, err := strconv.ParseInt(tok, 0, 64)
		if err != nil {
			return fmt.Errorf("bad integer %q", tok)
		}
		in.Imm = v
	}
	in.HasImm = true
	return nil
}

// registers resolves the register operands toks into slots.
func (p *parser) registers(toks []string, slots ...*Value) error {
	for i, slot := range slots {
		v, err := p.register(toks[i])
		if err != nil {
			return err
		}
		*slot = v
	}
	return nil
}

// parseOp fills in from the opcode and its operands; instr emits it. The
// gtid and index forms emit their temporaries first.
func (p *parser) parseOp(in *Instr, op, dst string, args []string) error {
	parts := strings.Split(op, ".")
	head := parts[0]

	switch head {
	case "exit":
		in.Op = OpExit
		return nil
	case "bar":
		in.Op = OpBar
		return nil
	case "sync":
		in.Op = OpSync
		return nil
	case "bra", "ssy":
		if len(args) != 1 {
			return fmt.Errorf("%s wants a label", head)
		}
		in.Op = OpBra
		if head == "ssy" {
			in.Op = OpSSY
		}
		in.Label = args[0]
		return nil
	case "gtid":
		// %d = gtid.x : blockIdx.x*blockDim.x + threadIdx.x, expanded.
		ct := p.f.NewValue(TU32)
		nt := p.f.NewValue(TU32)
		td := p.f.NewValue(TU32)
		p.f.Emit(Instr{Op: OpSreg, Type: TU32, Dst: ct, SR: sass.SRCtaidX})
		p.f.Emit(Instr{Op: OpSreg, Type: TU32, Dst: nt, SR: sass.SRNTidX})
		p.f.Emit(Instr{Op: OpSreg, Type: TU32, Dst: td, SR: sass.SRTidX})
		in.Op = OpMad
		in.Type = TU32
		in.A, in.B, in.C = ct, nt, td
		return p.defDst(in, dst, TU32)
	case "sreg":
		if len(args) != 1 {
			return fmt.Errorf("sreg wants a name")
		}
		sr, ok := srByName[args[0]]
		if !ok {
			return fmt.Errorf("unknown special register %q", args[0])
		}
		in.Op = OpSreg
		in.Type = TU32
		in.SR = sr
		return p.defDst(in, dst, TU32)
	case "index":
		// %a = index %base %idx shift
		if len(args) != 3 {
			return fmt.Errorf("index wants base, idx, shift")
		}
		var idx Value
		if err := p.registers(args, &in.A, &idx); err != nil {
			return err
		}
		shift, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad shift %q", args[2])
		}
		// scaled = idx << shift (u32); wide = zext scaled; dst = base+wide.
		// The temporaries are pure, so they go unguarded even when the
		// line is guarded: a guarded definition read under the same guard
		// is a read before definition to ptxas.
		if shift > 0 {
			s := p.f.NewValue(TU32)
			p.f.Emit(Instr{Op: OpShl, Type: TU32, Dst: s, A: idx, Imm: int64(shift), HasImm: true})
			idx = s
		}
		in.B = p.f.NewValue(TU64)
		p.f.Emit(Instr{Op: OpCvt, Type: TU64, SrcType: TU32, Dst: in.B, A: idx})
		in.Op = OpAdd
		in.Type = TU64
		return p.defDst(in, dst, TU64)
	case "mov":
		if len(parts) != 2 {
			return fmt.Errorf("mov wants a type suffix")
		}
		t, ok := typeBySuffix(parts[1])
		if !ok {
			return fmt.Errorf("bad type %q", parts[1])
		}
		if err := p.defDst(in, dst, t); err != nil {
			return err
		}
		in.Op = OpMov
		in.Type = t
		if len(args) != 1 {
			return fmt.Errorf("mov wants one operand")
		}
		if strings.HasPrefix(args[0], "%") {
			return p.registers(args, &in.A)
		}
		// An immediate mov takes its value from Imm alone.
		return p.operand(in, args[0], t, &in.B)
	case "setp":
		// setp.<cmp>.<t> a b
		if len(parts) != 3 {
			return fmt.Errorf("setp wants setp.<cmp>.<type>")
		}
		cmp, ok := sass.CmpByName(strings.ToUpper(parts[1]))
		if !ok {
			return fmt.Errorf("bad comparison %q", parts[1])
		}
		t, ok := typeBySuffix(parts[2])
		if !ok {
			return fmt.Errorf("bad type %q", parts[2])
		}
		if err := p.defDst(in, dst, TPred); err != nil {
			return err
		}
		in.Op = OpSetp
		in.Type = t
		in.Cmp = cmp
		if len(args) != 2 {
			return fmt.Errorf("setp wants two operands")
		}
		if err := p.operand(in, args[0], t, &in.A); err != nil {
			return err
		}
		return p.operand(in, args[1], t, &in.B)
	case "sel":
		if len(parts) != 2 {
			return fmt.Errorf("sel wants a type suffix")
		}
		t, ok := typeBySuffix(parts[1])
		if !ok {
			return fmt.Errorf("bad type %q", parts[1])
		}
		if len(args) != 3 {
			return fmt.Errorf("sel wants a, b, pred")
		}
		if err := p.defDst(in, dst, t); err != nil {
			return err
		}
		in.Op = OpSel
		in.Type = t
		return p.registers(args, &in.A, &in.B, &in.C)
	case "fma", "mad":
		if len(parts) != 2 {
			return fmt.Errorf("%s wants a type suffix", head)
		}
		t, ok := typeBySuffix(parts[1])
		if !ok {
			return fmt.Errorf("bad type %q", parts[1])
		}
		if len(args) != 3 {
			return fmt.Errorf("%s wants three operands", head)
		}
		if err := p.defDst(in, dst, t); err != nil {
			return err
		}
		in.Op = OpMad
		if head == "fma" {
			in.Op = OpFma
		}
		in.Type = t
		return p.registers(args, &in.A, &in.B, &in.C)
	case "cvt":
		// cvt.<to>.<from>
		if len(parts) != 3 {
			return fmt.Errorf("cvt wants cvt.<to>.<from>")
		}
		to, ok1 := typeBySuffix(parts[1])
		from, ok2 := typeBySuffix(parts[2])
		if !ok1 || !ok2 {
			return fmt.Errorf("bad cvt types")
		}
		if len(args) != 1 {
			return fmt.Errorf("cvt wants one operand")
		}
		if err := p.defDst(in, dst, to); err != nil {
			return err
		}
		in.Op = OpCvt
		in.Type = to
		in.SrcType = from
		return p.registers(args, &in.A)
	case "ld", "st":
		// ld.<space>.<t|u8> addr offset [src for st]
		if len(parts) != 3 {
			return fmt.Errorf("%s wants %s.<space>.<type>", head, head)
		}
		space, ok := spaceByName[parts[1]]
		if !ok {
			return fmt.Errorf("bad space %q", parts[1])
		}
		width := 4
		t := TU32
		if parts[2] == "u8" {
			width = 1
		} else if tt, ok := typeBySuffix(parts[2]); ok {
			t = tt
			if t == TU64 {
				width = 8
			}
		} else {
			return fmt.Errorf("bad type %q", parts[2])
		}
		wantArgs := 2
		if head == "st" {
			wantArgs = 3
		}
		if len(args) != wantArgs {
			return fmt.Errorf("%s wants %d operands", head, wantArgs)
		}
		off, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad offset %q", args[1])
		}
		in.Space = space
		in.Width = width
		in.Imm = off
		in.Type = t
		if head == "st" {
			in.Op = OpSt
			return p.registers([]string{args[0], args[2]}, &in.A, &in.B)
		}
		in.Op = OpLd
		if err := p.registers(args, &in.A); err != nil {
			return err
		}
		return p.defDst(in, dst, t)
	case "atom":
		// atom.<op>.<space> addr off val
		if len(parts) != 3 {
			return fmt.Errorf("atom wants atom.<op>.<space>")
		}
		aop, ok := atomOps[parts[1]]
		if !ok {
			return fmt.Errorf("bad atomic op %q", parts[1])
		}
		space, ok := spaceByName[parts[2]]
		if !ok {
			return fmt.Errorf("bad space %q", parts[2])
		}
		if len(args) != 3 {
			return fmt.Errorf("atom wants addr, offset, value")
		}
		off, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad offset %q", args[1])
		}
		if err := p.registers([]string{args[0], args[2]}, &in.A, &in.B); err != nil {
			return err
		}
		in.Op = OpAtom
		in.Atom = aop
		in.Space = space
		in.Width = 4
		in.Type = TU32
		in.Imm = off
		if dst != "" {
			return p.defDst(in, dst, TU32)
		}
		return nil
	}
	// Binary arithmetic with a type suffix.
	if bop, ok := binOps[head]; ok {
		if len(parts) != 2 {
			return fmt.Errorf("%s wants a type suffix", head)
		}
		t, ok := typeBySuffix(parts[1])
		if !ok {
			return fmt.Errorf("bad type %q", parts[1])
		}
		if len(args) != 2 {
			return fmt.Errorf("%s wants two operands", head)
		}
		if err := p.defDst(in, dst, t); err != nil {
			return err
		}
		in.Op = bop
		in.Type = t
		if err := p.operand(in, args[0], t, &in.A); err != nil {
			return err
		}
		return p.operand(in, args[1], t, &in.B)
	}
	// MUFU family.
	if mf, ok := mufuOps[head]; ok {
		if len(args) != 1 {
			return fmt.Errorf("%s wants one operand", head)
		}
		if err := p.defDst(in, dst, TF32); err != nil {
			return err
		}
		in.Op = OpMufu
		in.Mufu = mf
		in.Type = TF32
		return p.registers(args, &in.A)
	}
	return fmt.Errorf("unknown opcode %q", head)
}

// register resolves a register the current line reads. A line cannot read
// the register it first defines: that holds nothing yet.
func (p *parser) register(tok string) (Value, error) {
	v, ok := p.vals[tok]
	if !ok || tok == p.fresh {
		return Value{}, fmt.Errorf("undefined register %q", tok)
	}
	return v, nil
}
