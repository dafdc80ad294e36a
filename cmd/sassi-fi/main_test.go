package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsage: a count nobody can run — fewer than one injection, or a
// negative number of workers — exits 2 with a message naming the flag and
// runs nothing, as an unknown workload or flag does.
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "parboil.histo", "-n", "-5"}, "-n"},
		{[]string{"-workload", "parboil.histo", "-n", "0"}, "-n"},
		{[]string{"-workload", "demo.vecadd", "-workers", "-1"}, "-workers"},
		{[]string{"-workload", "no.such"}, "no.such"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, no stdout, %q named", tc.args, code, out.String(), errb.String(), tc.want)
		}
	}
}

// TestCampaign: a campaign runs the injections asked for.
func TestCampaign(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-workload", "demo.vecadd", "-gpu", "mini", "-n", "3", "-workers", "1"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "demo.vecadd (small), 3 injections") {
		t.Errorf("stdout:\n%s", out.String())
	}
}
