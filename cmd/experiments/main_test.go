package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsage: fewer than one injection per app, or a negative number of
// workers, exits 2 with a message naming the flag and runs nothing, as an
// unknown flag does.
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "fig10", "-apps", "demo.vecadd", "-injections", "-1"}, "-injections"},
		{[]string{"-run", "cfi", "-apps", "demo.calltree", "-injections", "0"}, "-injections"},
		{[]string{"-run", "fig10", "-apps", "demo.vecadd", "-workers", "-3"}, "-workers"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, no stdout, %q named", tc.args, code, out.String(), errb.String(), tc.want)
		}
	}
}

// TestFigure10: fig10 runs the injections asked for; a step that fails
// exits 1.
func TestFigure10(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-run", "fig10", "-apps", "demo.vecadd", "-injections", "2", "-gpu", "mini", "-workers", "1"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "==== fig10") || !strings.Contains(out.String(), "demo.vecadd") {
		t.Errorf("stdout:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	args = []string{"-run", "fig10", "-apps", "no.such", "-injections", "2", "-gpu", "mini"}
	if code := run(args, &out, &errb); code != 1 || !strings.Contains(errb.String(), "fig10 failed") {
		t.Errorf("unknown app: exit %d, stderr %q", code, errb.String())
	}
}
