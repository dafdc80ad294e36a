package ptxas

import (
	"testing"

	"sassi/internal/sass"
)

// TestCheckKernelRefuses: the compiler's output check refuses an empty
// kernel, a kernel with no EXIT and an instruction CheckInstr refuses, and
// accepts EXIT alone.
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
	if err := checkKernel(&sass.Kernel{Name: "k", Instrs: []sass.Instruction{exit}}); err != nil {
		t.Errorf("EXIT alone: %v", err)
	}
}
