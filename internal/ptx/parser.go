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

// instr parses "[@[!]%p] [%dst =] op[.mods] operands...".
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
	op := fields[0]
	args := fields[1:]
	return p.emitOp(&in, op, dstName, args)
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

// addrType is the type of an address into space: a 64-bit pointer into
// global or generic memory, a 32-bit offset into shared or local memory.
func addrType(space Space) Type {
	if space == SpShared || space == SpLocal {
		return TU32
	}
	return TU64
}

// isInt32 reports whether t is a 32-bit integer type.
func isInt32(t Type) bool { return t == TU32 || t == TS32 }

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

// operand resolves a register reference or an immediate of type t. A
// register must hold a t, as for operandEmit.
func (p *parser) operand(in *Instr, tok string, t Type, slot *Value) error {
	if strings.HasPrefix(tok, "%") {
		v, err := p.register(tok, t)
		if err != nil {
			return err
		}
		*slot = v
		return nil
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

func (p *parser) emitOp(in *Instr, op, dst string, args []string) error {
	parts := strings.Split(op, ".")
	head := parts[0]

	emit := func() { p.f.Emit(*in) }

	switch head {
	case "exit":
		in.Op = OpExit
		emit()
		return nil
	case "bar":
		in.Op = OpBar
		emit()
		return nil
	case "sync":
		in.Op = OpSync
		emit()
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
		emit()
		return nil
	case "gtid":
		// %d = gtid.x : blockIdx.x*blockDim.x + threadIdx.x, expanded.
		ct := p.f.NewValue(TU32)
		nt := p.f.NewValue(TU32)
		td := p.f.NewValue(TU32)
		p.f.Emit(Instr{Op: OpSreg, Type: TU32, Dst: ct, SR: sass.SRCtaidX})
		p.f.Emit(Instr{Op: OpSreg, Type: TU32, Dst: nt, SR: sass.SRNTidX})
		p.f.Emit(Instr{Op: OpSreg, Type: TU32, Dst: td, SR: sass.SRTidX})
		if err := p.defDst(in, dst, TU32); err != nil {
			return err
		}
		in.Op = OpMad
		in.Type = TU32
		in.A, in.B, in.C = ct, nt, td
		emit()
		return nil
	case "sreg":
		if len(args) != 1 {
			return fmt.Errorf("sreg wants a name")
		}
		sr, ok := srByName[args[0]]
		if !ok {
			return fmt.Errorf("unknown special register %q", args[0])
		}
		if err := p.defDst(in, dst, TU32); err != nil {
			return err
		}
		in.Op = OpSreg
		in.Type = TU32
		in.SR = sr
		emit()
		return nil
	case "index":
		// %a = index %base %idx shift
		if len(args) != 3 {
			return fmt.Errorf("index wants base, idx, shift")
		}
		base, err := p.register(args[0], TU64)
		if err != nil {
			return err
		}
		idx, err := p.register(args[1], TU32)
		if err != nil {
			return err
		}
		shift, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad shift %q", args[2])
		}
		// scaled = idx << shift (u32); wide = zext scaled; dst = base+wide
		scaled := idx
		if shift > 0 {
			s := p.f.NewValue(TU32)
			p.f.Emit(Instr{Op: OpShl, Type: TU32, Dst: s, A: idx, Imm: int64(shift), HasImm: true, Guard: in.Guard, GuardNeg: in.GuardNeg})
			scaled = s
		}
		wide := p.f.NewValue(TU64)
		p.f.Emit(Instr{Op: OpCvt, Type: TU64, SrcType: TU32, Dst: wide, A: scaled, Guard: in.Guard, GuardNeg: in.GuardNeg})
		if err := p.defDst(in, dst, TU64); err != nil {
			return err
		}
		in.Op = OpAdd
		in.Type = TU64
		in.A, in.B = base, wide
		emit()
		return nil
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
			return p.operandEmit(in, args[0], t, &in.A)
		}
		if err := p.operand(in, args[0], t, &in.B); err != nil {
			return err
		}
		// Immediate mov uses Imm directly.
		in.B = Value{}
		emit()
		return nil
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
		if err := p.operand(in, args[1], t, &in.B); err != nil {
			return err
		}
		emit()
		return nil
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
		if err := p.operand(in, args[0], t, &in.A); err != nil {
			return err
		}
		if err := p.operand(in, args[1], t, &in.B); err != nil {
			return err
		}
		c, err := p.register(args[2], TPred)
		if err != nil {
			return err
		}
		in.C = c
		emit()
		return nil
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
		for i, slot := range []*Value{&in.A, &in.B, &in.C} {
			v, err := p.register(args[i], t)
			if err != nil {
				return err
			}
			*slot = v
		}
		emit()
		return nil
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
		return p.operandEmit(in, args[0], from, &in.A)
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
		addr, err := p.register(args[0], addrType(space))
		if err != nil {
			return err
		}
		off, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad offset %q", args[1])
		}
		in.Space = space
		in.Width = width
		in.A = addr
		in.Imm = off
		in.Type = t
		if head == "ld" {
			if err := p.defDst(in, dst, t); err != nil {
				return err
			}
			in.Op = OpLd
		} else {
			v, err := p.register(args[2], t)
			if err != nil {
				return err
			}
			in.Op = OpSt
			in.B = v
		}
		emit()
		return nil
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
		addr, err := p.register(args[0], addrType(space))
		if err != nil {
			return err
		}
		off, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad offset %q", args[1])
		}
		v, err := p.register(args[2], TU32)
		if err != nil {
			return err
		}
		in.Op = OpAtom
		in.Atom = aop
		in.Space = space
		in.Width = 4
		in.Type = TU32
		in.A = addr
		in.Imm = off
		in.B = v
		if dst != "" {
			if err := p.defDst(in, dst, TU32); err != nil {
				return err
			}
		}
		emit()
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
		if err := p.operand(in, args[1], t, &in.B); err != nil {
			return err
		}
		emit()
		return nil
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
		return p.operandEmit(in, args[0], TF32, &in.A)
	}
	return fmt.Errorf("unknown opcode %q", head)
}

// operandEmit resolves a register operand of type t then emits.
func (p *parser) operandEmit(in *Instr, tok string, t Type, slot *Value) error {
	v, err := p.register(tok, t)
	if err != nil {
		return err
	}
	*slot = v
	p.f.Emit(*in)
	return nil
}

// register resolves a register the current line reads, which must hold a
// t: the module verifier does not check source types, and the backend
// would move a pair or a predicate as a 32-bit register. Like PTX, it
// takes a u32 register for an s32 operand and the reverse.
func (p *parser) register(tok string, t Type) (Value, error) {
	v, ok := p.vals[tok]
	if !ok || tok == p.fresh {
		return Value{}, fmt.Errorf("undefined register %q", tok)
	}
	if vt := p.f.TypeOf(v); vt != t && !(isInt32(vt) && isInt32(t)) {
		return Value{}, fmt.Errorf("register %s is %s, not %s", tok, vt, t)
	}
	return v, nil
}
