package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes the dispatcher with captured output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestDispatchReachesRunner: every subcommand parses its own input flag and
// reaches its reduction, which fails on a missing file with exit 1 — a
// dispatch or flag-binding mistake would exit 2 instead.
func TestDispatchReachesRunner(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	inputFlag := map[string]string{"pareto": "-distill", "check": "-trace"}
	for _, name := range subcommandOrder {
		t.Run(name, func(t *testing.T) {
			flagName := inputFlag[name]
			if flagName == "" {
				flagName = "-metrics"
			}
			code, _, stderr := runCLI(name, flagName, missing)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, missing) {
				t.Fatalf("error does not name the missing file:\n%s", stderr)
			}
		})
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, stdout, _ := runCLI("help")
	if code != 0 {
		t.Fatalf("help exit %d, want 0", code)
	}
	for _, name := range subcommandOrder {
		if !strings.Contains(stdout, name) {
			t.Fatalf("help listing lacks %q:\n%s", name, stdout)
		}
	}
	if code, _, _ := runCLI("metrics", "-h"); code != 0 {
		t.Fatalf("metrics -h exit %d, want 0", code)
	}
}

func TestBadInvocationExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"metrics"},                    // no input file
		{"balance", "-no-such-flag"},   // flag error
		{"-balance", "-metrics", "f"},  // the removed pre-subcommand spelling
		{"-metrics", "f", "-run", "x"}, // likewise
	} {
		code, _, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if len(args) > 0 && strings.HasPrefix(args[0], "-") && !strings.Contains(stderr, "usage: gcstats") {
			t.Errorf("%q: no usage listing on stderr:\n%s", args, stderr)
		}
	}
}
