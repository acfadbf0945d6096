package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagsRejectedWithoutPanic: cluster and machine counts the scenario
// cannot be built from are flag errors (exit 2 with a message), not
// panics.
func TestFlagsRejectedWithoutPanic(t *testing.T) {
	for _, args := range [][]string{
		{"-clusters", "4"},
		{"-clusters", "0"},
		{"-clusters", "-3", "-plan", "balanced"},
		{"-machines", "3", "-clusters", "5"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "mirage-sim: -") {
			t.Errorf("%v: stderr %q names no flag", args, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting", args, out.String())
		}
	}
}

func TestSmallestScenarioRuns(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-machines", "50", "-clusters", "5"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Balanced(best)") {
		t.Fatalf("no protocol table in output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-machines", "50", "-clusters", "5", "-plan", "balanced"}, &out, &errOut); code != 0 || out.Len() == 0 {
		t.Fatalf("plan dump: exit %d, %d bytes", code, out.Len())
	}
}
