// Command sassi-lint runs the static verifier (internal/analysis) over
// kernels without executing them: the compile pipeline's post-pass, usable
// standalone and from CI.
//
// Inputs are PTX-like assembly files (compiled through ptxas first) or
// serialized kernels written by MarshalBinary; -workloads lints every
// built-in benchmark and -mutants every seed-buggy mutant instead. With
// -instrument, each compiled program is additionally instrumented with a
// representative configuration and the instrumentation-safety checks run
// over the result. -checks restricts reporting to a comma-separated list
// of check classes (unknown names are usage errors; -list-checks prints
// the known set); -Werror makes warnings fail the run, which is how CI
// gates the concurrency checks (warnings by design, so compiles still
// succeed) over the built-in suite. -workload lints a single built-in by
// name; it also takes a mutant's name.
//
// Usage:
//
//	sassi-lint examples/ptxasm/squares.sptx
//	sassi-lint -workloads -instrument
//	sassi-lint -Werror -checks barrier-divergence,shared-race,cfi -workloads
//	sassi-lint -checks cfi -workload mutant.cfi-ret-nocall
//	sassi-lint -list-checks
//
// Diagnostics print one per line in a deterministic order; the exit
// status is 1 if any error-severity finding was reported (or any finding
// at all under -Werror), 2 on usage or input errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sassi/internal/analysis"
	"sassi/internal/analysis/concurrency"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, lints, prints, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sassi-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lintWorkloads := fs.Bool("workloads", false, "lint every built-in workload")
	oneWorkload := fs.String("workload", "", "lint a single built-in workload or mutant by name")
	lintMutants := fs.Bool("mutants", false, "lint every seed-buggy mutant workload")
	instrument := fs.Bool("instrument", false, "also instrument each program and check the result")
	werror := fs.Bool("Werror", false, "treat warnings as errors for the exit status")
	checks := fs.String("checks", "", "comma-separated check classes to report (default: all)")
	listChecks := fs.Bool("list-checks", false, "list the known check classes and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listChecks {
		for _, c := range analysis.KnownChecks() {
			fmt.Fprintln(stdout, c)
		}
		return 0
	}

	if !*lintWorkloads && !*lintMutants && *oneWorkload == "" && fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: sassi-lint [-Werror] [-checks list] [-list-checks] [-instrument] [-workloads] [-workload name] [-mutants] [file.sptx|file.sasskrn ...]")
		return 2
	}

	l := &linter{instrument: *instrument, stdout: stdout, stderr: stderr}
	if *checks != "" {
		known := map[string]bool{}
		for _, c := range analysis.KnownChecks() {
			known[c] = true
		}
		l.filter = map[string]bool{}
		for _, c := range strings.Split(*checks, ",") {
			c = strings.TrimSpace(c)
			if !known[c] {
				fmt.Fprintf(stderr, "sassi-lint: unknown check %q (known: %s)\n",
					c, strings.Join(analysis.KnownChecks(), ", "))
				return 2
			}
			l.filter[c] = true
		}
	}
	if *lintWorkloads {
		for _, name := range workloads.Names() {
			spec, _ := workloads.Get(name)
			l.lintSpec("workload:"+name, spec)
		}
	}
	if *oneWorkload != "" {
		label := "workload:"
		spec, ok := workloads.Get(*oneWorkload)
		if !ok {
			label = "mutant:"
			spec, ok = workloads.GetMutant(*oneWorkload)
		}
		if !ok {
			fmt.Fprintf(stderr, "sassi-lint: unknown workload %q\n", *oneWorkload)
			return 2
		}
		l.lintSpec(label+*oneWorkload, spec)
	}
	if *lintMutants {
		for _, name := range workloads.MutantNames() {
			spec, _ := workloads.GetMutant(name)
			l.lintSpec("mutant:"+name, spec)
		}
	}
	for _, path := range fs.Args() {
		l.lintFile(path)
	}

	if l.errors > 0 {
		fmt.Fprintf(stderr, "sassi-lint: %d error(s), %d warning(s)\n", l.errors, l.warnings)
		return 1
	}
	if l.warnings > 0 {
		fmt.Fprintf(stderr, "sassi-lint: %d warning(s)\n", l.warnings)
		if *werror {
			fmt.Fprintln(stderr, "sassi-lint: warnings treated as errors (-Werror)")
			return 1
		}
	}
	return 0
}

type linter struct {
	instrument bool
	filter     map[string]bool // nil: report every check class
	stdout     io.Writer
	stderr     io.Writer
	errors     int
	warnings   int
}

func (l *linter) fail(format string, args ...any) {
	fmt.Fprintf(l.stderr, "sassi-lint: "+format+"\n", args...)
	l.errors++
}

func (l *linter) report(file string, diags []analysis.Diagnostic) {
	if l.filter != nil {
		kept := diags[:0]
		for _, d := range diags {
			if l.filter[d.Check] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	// Verify sorts per program, but instrument results arrive separately:
	// re-sort so each batch prints deterministically.
	analysis.SortDiagnostics(diags)
	for _, d := range diags {
		d.File = file
		fmt.Fprintln(l.stdout, d)
		if d.Sev == analysis.Error {
			l.errors++
		} else {
			l.warnings++
		}
	}
}

func (l *linter) lintSpec(label string, spec *workloads.Spec) {
	prog, err := spec.Compile(ptxas.Options{Verify: analysis.VerifyOff})
	if err != nil {
		l.fail("%s: %v", label, err)
		return
	}
	l.lintProgram(label, prog)
}

func (l *linter) lintFile(path string) {
	switch {
	case strings.HasSuffix(path, ".sasskrn"):
		data, err := os.ReadFile(path)
		if err != nil {
			l.fail("%v", err)
			return
		}
		k := &sass.Kernel{}
		if err := k.UnmarshalBinary(data); err != nil {
			l.fail("%s: %v", path, err)
			return
		}
		l.report(path, verifyKernel(k))
	default: // PTX-like assembly
		src, err := os.ReadFile(path)
		if err != nil {
			l.fail("%v", err)
			return
		}
		m, err := ptx.ParseModule(string(src))
		if err != nil {
			l.fail("%s: %v", path, err)
			return
		}
		// Compile without the verify post-pass: the lint reports the
		// diagnostics itself instead of dying on the first error.
		prog, err := ptxas.Compile(m, ptxas.Options{Verify: analysis.VerifyOff})
		if err != nil {
			l.fail("%s: %v", path, err)
			return
		}
		l.lintProgram(path, prog)
	}
}

// verifyKernel is analysis.VerifyKernel plus the concurrency checks, which
// lint the user's program rather than certify the compiler's output and so
// are not in Verify's list. They run on the facts verification built: one
// value fixpoint per kernel.
func verifyKernel(k *sass.Kernel) []analysis.Diagnostic {
	diags, facts := analysis.VerifyKernelFacts(k)
	if facts != nil {
		diags = append(diags, concurrency.Check(facts)...)
	}
	return diags
}

func (l *linter) lintProgram(file string, prog *sass.Program) {
	var diags []analysis.Diagnostic
	for _, k := range prog.Kernels {
		diags = append(diags, verifyKernel(k)...)
		diags = append(diags, analysis.CheckLinkage(prog, k)...)
	}
	l.report(file, diags)
	if !l.instrument {
		return
	}
	// Instrument with a configuration that exercises every injection shape:
	// before-sites everywhere, after-sites on memory ops, the memory extra
	// object. Instrument's own verify post-pass diffs the result against
	// the original; recover its diagnostics for positioned output.
	err := sassi.Instrument(prog, sassi.Options{
		Where:         sassi.BeforeAll | sassi.AfterMem,
		What:          sassi.PassMemoryInfo,
		BeforeHandler: "lint_before",
		AfterHandler:  "lint_after",
		Verify:        analysis.VerifyOn,
	})
	if err == nil {
		return
	}
	var ve *analysis.VerifyError
	if errors.As(err, &ve) {
		l.report(file+" [instrumented]", ve.Diags)
		return
	}
	l.fail("%s: instrument: %v", file, err)
}
