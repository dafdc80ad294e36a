package handlers_test

import (
	"slices"
	"strings"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/sim"
)

// TestToolTable: names are unique, and every tool's handler is the symbol
// its options instrument with and decodes the second ABI argument by the
// What its sites pass: the runtime reads that argument by the handler's
// What, so a mismatch would hand the handler the wrong parameter object.
func TestToolTable(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range handlers.Tools() {
		if seen[spec.Name] {
			t.Errorf("tool %q listed twice", spec.Name)
		}
		seen[spec.Name] = true
		tool := spec.New(cuda.NewContext(sim.MiniGPU()))
		opts, h := tool.Options(), tool.Handler()
		if h.Name == "" || (h.Name != opts.BeforeHandler && h.Name != opts.AfterHandler) {
			t.Errorf("%s: handler %q is neither the before symbol %q nor the after symbol %q",
				spec.Name, h.Name, opts.BeforeHandler, opts.AfterHandler)
		}
		if h.What != opts.What {
			t.Errorf("%s: handler decodes What %#x, sites pass %#x", spec.Name, h.What, opts.What)
		}
	}
	if !slices.Equal(handlers.ToolNames(), []string{"opcount", "branch", "memdiv", "value", "cfi", "racecheck"}) {
		t.Errorf("ToolNames() = %v", handlers.ToolNames())
	}
}

func TestSelectTools(t *testing.T) {
	for _, list := range []string{"", "all"} {
		all, err := handlers.SelectTools(list)
		if err != nil || len(all) != len(handlers.Tools()) {
			t.Fatalf("SelectTools(%q) = %d tools, err %v", list, len(all), err)
		}
	}
	two, err := handlers.SelectTools("branch, memdiv")
	if err != nil || len(two) != 2 || two[0].Name != "branch" || two[1].Name != "memdiv" {
		t.Fatalf("SelectTools(branch, memdiv) = %v, err %v", two, err)
	}
	for _, list := range []string{"nosuch", "valueprof", "branch,all"} {
		if _, err := handlers.SelectTools(list); err == nil || !strings.Contains(err.Error(), "unknown tool") {
			t.Errorf("SelectTools(%q) err = %v", list, err)
		}
	}
}
