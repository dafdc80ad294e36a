package ptxas

import (
	"testing"

	"sassi/internal/sass"
)

// TestCheckKernelRefuses: the compiler's output check refuses an empty
// kernel, a kernel with no EXIT, an instruction CheckInstr refuses and a
// parameter layout CheckResources refuses, and accepts EXIT alone.
func TestCheckKernelRefuses(t *testing.T) {
	exit := sass.New(sass.OpEXIT, nil, nil)
	cases := map[string][]sass.Instruction{
		"empty":   nil,
		"no exit": {sass.New(sass.OpNOP, nil, nil)},
		"short":   {sass.New(sass.OpIADD, []sass.Operand{sass.R(2)}, []sass.Operand{sass.R(3)}), exit},
	}
	for name, instrs := range cases {
		if err := checkKernel(&sass.Kernel{Name: "k", Instrs: instrs}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	narrow := &sass.Kernel{Name: "k", Instrs: []sass.Instruction{exit},
		Params: []sass.ParamDesc{{Name: "p", Size: 2, Offset: sass.ParamBase}}}
	if err := checkKernel(narrow); err == nil {
		t.Error("2-byte parameter: accepted")
	}
	if err := checkKernel(&sass.Kernel{Name: "k", Instrs: []sass.Instruction{exit}}); err != nil {
		t.Errorf("EXIT alone: %v", err)
	}
}
