package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sassi/internal/handlers"
)

// TestUsage: a count nobody can run — fewer than one kernel, or a negative
// number of workers — exits 2 with a message naming the flag and runs
// nothing, as an unknown handler tool or flag does.
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-5"}, "-n"},
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-n", "1", "-workers", "-3"}, "-workers"},
		{[]string{"-n", "1", "-handlers", "no.such"}, "no.such"},
		{[]string{"-n", "1", "-handlers", "valueprof"}, "valueprof"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, no stdout, %q named", tc.args, code, out.String(), errb.String(), tc.want)
		}
	}
}

// TestCampaign: a campaign runs the kernels asked for and passes.
func TestCampaign(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-seed", "1", "-n", "2", "-workers", "1", "-handlers", "branch", "-out", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "difftest: 2 kernels") || !strings.Contains(out.String(), "PASS") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

// TestHandlerNames: -handlers takes every name of handlers.Tools, listed
// one by one, and checks them all.
func TestHandlerNames(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-seed", "1", "-n", "1", "-workers", "1", "-out", t.TempDir(),
		"-handlers", strings.Join(handlers.ToolNames(), ",")}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if want := fmt.Sprintf("%d tool(s)", len(handlers.ToolNames())); !strings.Contains(out.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, out.String())
	}
}
