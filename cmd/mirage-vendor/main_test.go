package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/staging"
)

// env is a fake environment for parseFlags.
func env(vars map[string]string) func(string) (string, bool) {
	return func(key string) (string, bool) {
		v, ok := vars[key]
		return v, ok
	}
}

func TestEnvOverridesApplyThroughFlagParsers(t *testing.T) {
	o, err := parseFlags(nil, env(map[string]string{
		"MIRAGE_LISTEN_ADDR":   "0.0.0.0:7033",
		"MIRAGE_AGENTS":        "4",
		"MIRAGE_WAIT":          "2m",
		"MIRAGE_SERVE":         "true",
		"MIRAGE_ADMIN_ADDR":    "0.0.0.0:7080",
		"MIRAGE_JOURNAL_DIR":   "/var/lib/mirage",
		"MIRAGE_WORKER_BUDGET": "64",
		"MIRAGE_MAX_ROLLOUTS":  "4",
		"MIRAGE_MAX_QUEUED":    "8",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if o.stack.Listen != "0.0.0.0:7033" || o.agents != 4 || o.wait != 2*time.Minute || !o.serve ||
		o.stack.Admin != "0.0.0.0:7080" || o.stack.JournalDir != "/var/lib/mirage" ||
		o.stack.WorkerBudget != 64 || o.stack.MaxRollouts != 4 || o.stack.MaxQueued != 8 {
		t.Fatalf("env overrides not applied: %+v", o)
	}
}

func TestExplicitFlagBeatsEnv(t *testing.T) {
	o, err := parseFlags([]string{"-agents", "2", "-serve=false"},
		env(map[string]string{"MIRAGE_AGENTS": "9", "MIRAGE_SERVE": "true"}))
	if err != nil {
		t.Fatal(err)
	}
	if o.agents != 2 || o.serve {
		t.Fatalf("agents=%d serve=%v, want the command line's 2/false", o.agents, o.serve)
	}
}

func TestUnparsableEnvIsAUsageError(t *testing.T) {
	for _, tc := range []struct{ key, val string }{
		{"MIRAGE_SERVE", "yes"},
		{"MIRAGE_AGENTS", "four"},
		{"MIRAGE_WAIT", "soon"},
	} {
		_, err := parseFlags(nil, env(map[string]string{tc.key: tc.val}))
		if err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s=%s: err = %v, want an error naming the variable", tc.key, tc.val, err)
		}
	}
}

func TestDefaultsWithoutEnv(t *testing.T) {
	o, err := parseFlags(nil, env(nil))
	if err != nil {
		t.Fatal(err)
	}
	if o.stack.Listen != "127.0.0.1:7033" || o.stack.Admin != "127.0.0.1:7080" || o.agents != 1 ||
		o.serve || o.stack.Diameter != 3 || o.stack.Faults.Seed != 1 {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestGateFlagsArmTheGateOnlyWithSamples(t *testing.T) {
	o, err := parseFlags([]string{"-gate-excess", "0.1"}, env(nil))
	if err != nil {
		t.Fatal(err)
	}
	if o.gate != (staging.GatePolicy{}) {
		t.Fatalf("gate without -gate-min-samples = %+v, want classic gating", o.gate)
	}
	o, err = parseFlags([]string{"-gate-baseline", "0.02", "-gate-excess", "0.1", "-gate-min-samples", "3"}, env(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := staging.GatePolicy{Enabled: true, BaselineFailureRate: 0.02, MaxExcessRate: 0.1, MinSamples: 3}
	if o.gate != want {
		t.Fatalf("gate = %+v, want %+v", o.gate, want)
	}
}

// TestDiameterZeroIsKept: -d 0 (identical profiles only) reaches the
// stack config as 0, not as the default diameter.
func TestDiameterZeroIsKept(t *testing.T) {
	o, err := parseFlags([]string{"-d", "0"}, env(nil))
	if err != nil {
		t.Fatal(err)
	}
	if o.stack.Diameter != 0 {
		t.Fatalf("-d 0 parsed as diameter %d", o.stack.Diameter)
	}
}

// TestEmptyAdminIsAUsageError: both modes serve the admin API, so an
// empty -admin, from the command line or the environment, is refused
// before the vendor waits on agents.
func TestEmptyAdminIsAUsageError(t *testing.T) {
	if _, err := parseFlags([]string{"-admin", ""}, env(nil)); err == nil {
		t.Error(`-admin "" accepted`)
	}
	if _, err := parseFlags(nil, env(map[string]string{"MIRAGE_ADMIN_ADDR": ""})); err == nil {
		t.Error(`MIRAGE_ADMIN_ADDR="" accepted`)
	}
}
