package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"sassi/internal/analysis"
	"sassi/internal/sass"
	"sassi/internal/sim"
)

// verifyOnly lists the structural rules the launch does not apply before
// it runs a kernel: a warp fails each one only when it gets there. sim's
// TestKernelAdmissionAgrees has a row with the reason for each.
var verifyOnly = []string{
	"kernel has no instructions",
	"kernel has no EXIT instruction",
	"control can fall off the kernel end",
	"has no label operand",
	"JCAL has no symbol operand",
}

// launchRefusalFor returns the refusal Launch must give k when CheckStructure
// reports diags on it — Verify's resource finding, or else the first
// instruction Verify refuses by a rule the launch applies too, with
// Verify's message there — or "" when Launch must run k. Verify holds a
// kernel to NumRegs, the launch to NumRegs but at least sass.MinRegs, so a
// register between the two is Verify's alone.
func launchRefusalFor(k *sass.Kernel, diags []analysis.Diagnostic) string {
	regs := max(k.NumRegs, sass.MinRegs)
next:
	for _, d := range analysis.Errors(diags) {
		for _, m := range verifyOnly {
			if strings.Contains(d.Msg, m) {
				continue next
			}
		}
		var r int
		if _, err := fmt.Sscanf(d.Msg, "R%d exceeds the kernel's register allocation", &r); err == nil {
			if r < regs {
				continue
			}
			return fmt.Sprintf("pc=%d: names R%d, the kernel has %d registers", d.Instr, r, regs)
		}
		if d.Instr < 0 {
			return d.Msg
		}
		return fmt.Sprintf("pc=%d: %s", d.Instr, d.Msg)
	}
	return ""
}

// FuzzAdmissionAgrees: on every kernel UnmarshalBinary decodes,
// Launch refuses the kernel before running it exactly when CheckStructure
// reports an error by a rule the launch applies too, and then at the first
// instruction Verify refuses so, with Verify's message — sim's
// TestVerifyAgreesWithLaunch and TestKernelAdmissionAgrees on arbitrary
// bytes. The kernel launches as one warp with its parameter layout and
// local size, which sass.Kernel.CheckResources bounds for both sides, and
// without its shared size, which the launch holds to the SM's alone.
func FuzzAdmissionAgrees(f *testing.F) {
	for i, k := range goldenKernels(f) {
		// Each small kernel as compiled and one register short, where both
		// sides refuse it when the register is past the launch's minimum;
		// the first also with a 2-byte parameter and with 1 MiB of stack.
		short := k.Clone()
		short.NumRegs = launchGPRs(k) - 1
		seeds := []*sass.Kernel{k, short}
		if i == 0 {
			narrow, deep := k.Clone(), k.Clone()
			narrow.Params = append(narrow.Params, sass.ParamDesc{Name: "narrow", Size: 2, Offset: sass.ParamBase})
			deep.LocalBytes = 1 << 20
			seeds = append(seeds, narrow, deep)
		}
		for _, k := range seeds {
			data, err := k.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			if len(data) <= 1<<14 { // a large input stalls the fuzzer minimizing it
				f.Add(data)
			}
		}
	}
	cfg := sim.MiniGPU()
	cfg.WatchdogWarpInstrs = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		var k sass.Kernel
		if k.UnmarshalBinary(data) != nil {
			return
		}
		k.SharedBytes = 0
		want := launchRefusalFor(&k, analysis.CheckStructure(&k))
		prog := sass.NewProgram()
		prog.AddKernel(&k)
		stats, err := sim.NewDevice(cfg).Launch(prog, k.Name, sim.LaunchParams{
			Grid: sim.D1(1), Block: sim.D1(32), Args: make([]uint64, len(k.Params))})
		if stats != nil {
			err = nil // it ran; how the run ended is no admission question
		}
		switch {
		case want == "" && err != nil:
			t.Fatalf("Verify admits it, Launch refuses it: %v", err)
		case want != "" && err == nil:
			t.Fatalf("Verify refuses it (%s), Launch runs it", want)
		case err != nil && !strings.Contains(err.Error(), want):
			t.Fatalf("Launch refuses it with %q, Verify with %q", err, want)
		}
	})
}
