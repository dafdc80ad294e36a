package difftest

import (
	"fmt"
	"sort"
	"strings"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/handlers"
	"sassi/internal/sassi"
)

// Tool is one instrumentation configuration the oracle checks for
// transparency. Make builds fresh per-context handler state (tools
// allocate device counter banks, so they are context-scoped).
type Tool struct {
	Name string
	Make func(ctx *cuda.Context) (sassi.Options, []*sassi.Handler)
}

// Tools returns the registered handler tools, one per case-study family:
// before-all sites with memory info (opcount), conditional branches
// (branch), memory ops (memdiv), and after-sites on register writes
// (value). Together they cover every injection-site class and both
// before/after sequences.
func Tools() []Tool {
	return []Tool{
		{Name: "opcount", Make: func(ctx *cuda.Context) (sassi.Options, []*sassi.Handler) {
			t := handlers.NewOpCounter(ctx)
			return t.Options(), []*sassi.Handler{t.Handler()}
		}},
		{Name: "branch", Make: func(ctx *cuda.Context) (sassi.Options, []*sassi.Handler) {
			t := handlers.NewBranchProfiler(ctx)
			return t.Options(), []*sassi.Handler{t.Handler()}
		}},
		{Name: "memdiv", Make: func(ctx *cuda.Context) (sassi.Options, []*sassi.Handler) {
			t := handlers.NewMemDivProfiler(ctx)
			return t.Options(), []*sassi.Handler{t.Handler()}
		}},
		{Name: "value", Make: func(ctx *cuda.Context) (sassi.Options, []*sassi.Handler) {
			t := handlers.NewValueProfiler(ctx)
			return t.Options(), []*sassi.Handler{t.Handler()}
		}},
	}
}

// ToolNames lists the registered tool names.
func ToolNames() []string {
	ts := Tools()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}

// SelectTools resolves a comma-separated name list ("" or "all" = every
// registered tool).
func SelectTools(spec string) ([]Tool, error) {
	all := Tools()
	if spec == "" || spec == "all" {
		return all, nil
	}
	byName := make(map[string]Tool, len(all))
	for _, t := range all {
		byName[t.Name] = t
	}
	var out []Tool
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		t, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("difftest: unknown handler tool %q (have %s)",
				name, strings.Join(ToolNames(), ", "))
		}
		out = append(out, t)
	}
	return out, nil
}

// MutantClobberTool is a deliberately ABI-violating tool: its handler
// writes garbage into GPR reg on every dispatch. Registers at or above
// sassi.HandlerMaxRegs sit outside the injector's save/restore window, so
// when reg is live this models an injector that clobbers a live register
// — the seeded transparency bug the oracle must catch. reg must be below
// the victim kernel's register count.
func MutantClobberTool(reg uint8) Tool {
	return Tool{
		Name: fmt.Sprintf("mutant-clobber-r%d", reg),
		Make: func(ctx *cuda.Context) (sassi.Options, []*sassi.Handler) {
			opts := sassi.Options{
				Where:         sassi.BeforeAll,
				BeforeHandler: "sassi_before_handler",
			}
			h := &sassi.Handler{
				Name: "sassi_before_handler",
				Fn: func(w *device.Warp, args sassi.HandlerArgs) {
					for l := w.First(); l >= 0; l = w.Next(l) {
						w.Lane(l).WriteReg(reg, 0xdeadbeef)
					}
				},
			}
			return opts, []*sassi.Handler{h}
		},
	}
}
