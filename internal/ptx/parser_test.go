package ptx_test

import (
	"math"
	"strings"
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sim"
)

const saxpySrc = `
# saxpy: y[i] = a*x[i] + y[i] for i < n
.entry saxpy
.param ptr x
.param ptr y
.param u32 n
.param f32 a
%i = gtid.x
%p = setp.lt.u32 %i %n
ssy Ldone
@!%p bra Lsync
%xa = index %x %i 2
%v = ld.global.f32 %xa 0
%ya = index %y %i 2
%w = ld.global.f32 %ya 0
%r = fma.f32 %a %v %w
st.global.f32 %ya 0 %r
Lsync:
sync
Ldone:
exit
`

func TestParseAndRunSaxpy(t *testing.T) {
	f, err := ptx.Parse(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "saxpy" || len(f.Params) != 4 {
		t.Fatalf("parsed header wrong: %s %v", f.Name, f.Params)
	}
	m := ptx.NewModule()
	m.Add(f)
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dev := sim.NewDevice(sim.MiniGPU())
	const n = 100
	dx := dev.Alloc(4 * n)
	dy := dev.Alloc(4 * n)
	for i := 0; i < n; i++ {
		dev.Global.Write32(dx+uint64(4*i), math.Float32bits(float32(i)))
		dev.Global.Write32(dy+uint64(4*i), math.Float32bits(1))
	}
	a := float32(0.5)
	if _, err := dev.Launch(prog, "saxpy", sim.LaunchParams{
		Grid: sim.D1(4), Block: sim.D1(32),
		Args: []uint64{dx, dy, n, uint64(math.Float32bits(a))},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		bits, _ := dev.Global.Read32(dy + uint64(4*i))
		got := math.Float32frombits(bits)
		want := a*float32(i) + 1
		if got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

const loopSrc = `
.entry count
.param ptr out
%i = gtid.x
%acc = mov.u32 0
%j = mov.u32 0
ssy Ldone
Lhead:
%p = setp.ge.u32 %j %i
@%p bra Lsync
%acc = add.u32 %acc %j
%j = add.u32 %j 1
bra Lhead
Lsync:
sync
Ldone:
%oa = index %out %i 2
st.global.u32 %oa 0 %acc
exit
`

// TestParseLoopWithMutableRegs: redefinition of %acc/%j forms a loop.
func TestParseLoopWithMutableRegs(t *testing.T) {
	f, err := ptx.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := ptx.NewModule()
	m.Add(f)
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dev := sim.NewDevice(sim.MiniGPU())
	out := dev.Alloc(4 * 32)
	if _, err := dev.Launch(prog, "count", sim.LaunchParams{
		Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{out},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		v, _ := dev.Global.Read32(out + uint64(4*i))
		want := uint32(i * (i - 1) / 2) // sum 0..i-1
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

const atomSrc = `
.entry histo
.param ptr hist
%i = gtid.x
%b = and.u32 %i 3
%ba = index %hist %b 2
%one = mov.u32 1
atom.add.global %ba 0 %one
exit
`

func TestParseAtomics(t *testing.T) {
	f, err := ptx.Parse(atomSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := ptx.NewModule()
	m.Add(f)
	prog, err := ptxas.Compile(m, ptxas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dev := sim.NewDevice(sim.MiniGPU())
	hist := dev.Alloc(16)
	if _, err := dev.Launch(prog, "histo", sim.LaunchParams{
		Grid: sim.D1(2), Block: sim.D1(32), Args: []uint64{hist},
	}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		v, _ := dev.Global.Read32(hist + uint64(4*b))
		if v != 16 {
			t.Fatalf("hist[%d] = %d, want 16", b, v)
		}
	}
}

func TestParseModuleMultipleKernels(t *testing.T) {
	m, err := ptx.ParseModule(saxpySrc + "\n" + atomSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) != 2 {
		t.Fatalf("kernels = %d", len(m.Funcs))
	}
	if m.Funcs[0].Name != "saxpy" || m.Funcs[1].Name != "histo" {
		t.Errorf("names: %s, %s", m.Funcs[0].Name, m.Funcs[1].Name)
	}
}

// TestParseOperandTypes: a register operand takes a register of its type,
// and of either 32-bit integer type for the other.
func TestParseOperandTypes(t *testing.T) {
	src := ".entry k\n.param ptr out\n%i = gtid.x\n%s = mov.s32 %i\n%f = cvt.f32.s32 %i\n%g = sqrt.f32 %f\n%w = cvt.u64.u32 %s\nexit"
	if _, err := ptx.Parse(src); err != nil {
		t.Fatal(err)
	}
}

// A binary, compare, select or fused operand is typed like operandEmit's:
// these two parsed once, and the first then panicked in ptxas's lowering
// while the second compiled to an add of the pointer's low half.
const (
	predAddSrc = ".entry k\n.param ptr out\n%i = gtid.x\n%p = setp.lt.u32 %i 4\n%a = add.u32 %p 1\nst.global.u32 %out 0 %a\nexit"
	ptrAddSrc  = ".entry k\n.param ptr out\n%a = add.u32 %out 1\nst.global.u32 %out 0 %a\nexit"
)

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no entry", "%i = gtid.x", "before .entry"},
		{"bad param", ".entry k\n.param blob x", "unknown param type"},
		{"undefined reg", ".entry k\n%a = add.u32 %ghost 1", "undefined register"},
		{"bad op", ".entry k\n%a = frobnicate %b", "unknown opcode"},
		{"bad guard", ".entry k\n@%ghost bra L", "undefined guard"},
		{"dangling label", ".entry k\nbra Lnowhere\nexit", "undefined label"},
		{"retype", ".entry k\n%a = mov.u32 1\n%a = mov.f32 1.0", "different type"},
		{"imm in a-slot", ".entry k\n%a = add.u32 1 %a", "not allowed"},
		{"mov of a predicate", ".entry k\n%i = gtid.x\n%p = setp.lt.u32 %i 4\n%a = mov.u32 %p", "operand a is pred, not u32"},
		{"mov of a float", ".entry k\n%f = mov.f32 1.0\n%a = mov.u32 %f", "operand a is f32, not u32"},
		{"cvt of a pointer", ".entry k\n.param ptr x\n%f = cvt.f32.u32 %x", "operand a is u64, not u32"},
		{"mufu of an integer", ".entry k\n%i = gtid.x\n%f = rcp.f32 %i", "operand a is u32, not f32"},
		{"add of a predicate", predAddSrc, "operand a is pred, not u32"},
		{"add of a pointer", ptrAddSrc, "operand a is u64, not u32"},
		{"fma of an integer", ".entry k\n%i = gtid.x\n%f = mov.f32 1.0\n%g = fma.f32 %f %i %f", "operand b is u32, not f32"},
		{"read of its own first definition", ".entry t\n%a = mov.u32 %a\nexit", "undefined register"},
		{"store of a predicate", ".entry k\n.param ptr out\n%i = gtid.x\n%p = setp.lt.u32 %i 4\nst.global.u32 %out 0 %p", "operand b is pred, not u32"},
		{"atom of a predicate", ".entry k\n.param ptr out\n%i = gtid.x\n%p = setp.lt.u32 %i 4\natom.add.global %out 0 %p", "operand b is pred, not u32"},
		{"global load through an offset", ".entry k\n%i = gtid.x\n%a = ld.global.u32 %i 0", "operand a is u32, not u64"},
		{"shared store through a pointer", ".entry k\n.param ptr out\n%i = gtid.x\nst.shared.u32 %out 0 %i", "operand a is u64, not u32"},
		{"index of an offset", ".entry k\n%i = gtid.x\n%a = index %i %i 2", "operand a is u32, not u64"},
		{"setp of a float", ".entry k\n%i = gtid.x\n%f = mov.f32 1.0\n%p = setp.lt.u32 %i %f", "operand b is f32, not u32"},
		{"sel of a pointer", ".entry k\n.param ptr x\n%i = gtid.x\n%p = setp.lt.u32 %i 4\n%a = sel.u32 %x %i %p", "operand a is u64, not u32"},
		{"shl of a pointer", ".entry k\n.param ptr out\n%i = gtid.x\n%a = shl.u64 %out 2\nst.global.u32 %a 0 %i", "shl.u64 is not implemented"},
		{"mad of pointers", ".entry k\n.param ptr out\n%a = mad.u64 %out %out %out", "mad.u64 is not implemented"},
		{"max of pointers", ".entry k\n.param ptr out\n%a = max.u64 %out %out", "max.u64 is not implemented"},
		{"cvt from a pointer", ".entry k\n.param ptr out\n%f = cvt.f32.u64 %out", "cvt.f32.u64 is not implemented"},
		{"sel of an immediate", ".entry k\n%i = gtid.x\n%p = setp.lt.u32 %i 4\n%a = sel.u32 %i 5 %p", `undefined register "5"`},
	}
	for _, c := range cases {
		_, err := ptx.Parse(c.src)
		if err == nil {
			t.Errorf("%s: parse accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.wantSub)
		}
	}
}

// TestGuardedDefinitions: ptxas refuses a value defined only under a guard
// and read under the same guard, a rule stricter than the SASS check's
// same-guard pairing. A guarded index line still compiles once its
// destination is defined, because its temporaries are defined unguarded.
func TestGuardedDefinitions(t *testing.T) {
	const head = ".entry k\n.param ptr out\n%i = gtid.x\n%p = setp.lt.u32 %i 4\n"
	for src, wantErr := range map[string]string{
		head + "%a = mov.u64 0\n@%p %a = index %out %i 2\n@%p st.global.u32 %a 0 %i": "",
		head + "@%p %a = index %out %i 2\n@%p st.global.u32 %a 0 %i":                 "read before it is defined",
	} {
		m, err := ptx.ParseModule(src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ptxas.Compile(m, ptxas.Options{})
		if wantErr == "" && err != nil || wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)) {
			t.Errorf("%q: Compile error %v, want %q", src, err, wantErr)
		}
	}
}
