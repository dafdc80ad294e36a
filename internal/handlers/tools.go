package handlers

import (
	"fmt"
	"strings"

	"sassi/internal/cuda"
	"sassi/internal/sass"
	"sassi/internal/sassi"
)

// Tool is one instrumentation tool, the paper's pair (§3.1–3.2): the sites
// where ptxas injects handler calls, and the handler those calls reach.
type Tool interface {
	Options() sassi.Options
	Handler() *sassi.Handler
}

// ToolSpec names a tool and builds it on a context; the profilers allocate
// their device-side state there.
type ToolSpec struct {
	Name string
	New  func(ctx *cuda.Context) Tool
}

// tools is the one table of named tools: `sassi -tool`, `sassi-difftest
// -handlers` and the experiments resolve names here, and the differential
// oracle checks every entry.
var tools = []ToolSpec{
	{"opcount", func(ctx *cuda.Context) Tool { return NewOpCounter(ctx) }},
	{"branch", func(ctx *cuda.Context) Tool { return NewBranchProfiler(ctx) }},
	{"memdiv", func(ctx *cuda.Context) Tool { return NewMemDivProfiler(ctx) }},
	{"value", func(ctx *cuda.Context) Tool { return NewValueProfiler(ctx) }},
	{"cfi", func(*cuda.Context) Tool { return NewCFIChecker() }},
	{"racecheck", func(*cuda.Context) Tool { return NewRaceChecker() }},
}

// Tools returns every named tool, in table order.
func Tools() []ToolSpec { return append([]ToolSpec(nil), tools...) }

// ToolNames returns the tools' names, in table order.
func ToolNames() []string {
	names := make([]string, len(tools))
	for i, t := range tools {
		names[i] = t.Name
	}
	return names
}

// LookupTool returns the named tool; an unknown name is an error that
// lists the known ones.
func LookupTool(name string) (ToolSpec, error) {
	for _, t := range tools {
		if t.Name == name {
			return t, nil
		}
	}
	return ToolSpec{}, fmt.Errorf("unknown tool %q (have %s)", name, strings.Join(ToolNames(), ", "))
}

// SelectTools resolves a comma-separated list of tool names; "" and "all"
// select every tool.
func SelectTools(list string) ([]ToolSpec, error) {
	if list == "" || list == "all" {
		return Tools(), nil
	}
	var out []ToolSpec
	for _, name := range strings.Split(list, ",") {
		t, err := LookupTool(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Prepare runs t's load step on the instrumented program it will run, for
// a tool that has one: CFIChecker builds its shadow tables there.
func Prepare(t Tool, prog *sass.Program) error {
	if p, ok := t.(interface{ Prepare(*sass.Program) error }); ok {
		return p.Prepare(prog)
	}
	return nil
}
