package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when TestFlagValidation re-executes this test
// binary with MPCPLAN_AS_MAIN=1, so the table below sees the real exit code
// and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("MPCPLAN_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValidation: a server count or space exponent the planner cannot
// take exits 2 with a one-line message — never a panic, and never a load
// printed as Inf or NaN.
func TestFlagValidation(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args string
		code int
		msg  string
	}{
		{"", 0, ""},
		{"-p 1 -eps 0.5", 0, ""},
		{"-p 0", 2, "mpcplan: -p must be at least 1, got 0"},
		{"-p -5", 2, "mpcplan: -p must be at least 1, got -5"},
		{"-eps 1", 2, "mpcplan: -eps must be in [0,1), got 1"},
		{"-eps -1", 2, "mpcplan: -eps must be in [0,1), got -1"},
		{"-sizes 1,2", 2, "mpcplan: 2 sizes for 3 atoms"},
	} {
		cmd := exec.Command(exe, strings.Fields(tc.args)...)
		cmd.Env = append(os.Environ(), "MPCPLAN_AS_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("mpcplan %s: %v", tc.args, err)
		}
		got := strings.TrimSpace(stderr.String())
		if code != tc.code || got != tc.msg {
			t.Errorf("mpcplan %s: exit %d, stderr %q; want exit %d, stderr %q", tc.args, code, got, tc.code, tc.msg)
		}
		if out := stdout.String(); strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
			t.Errorf("mpcplan %s printed a non-finite number:\n%s", tc.args, out)
		}
	}
}
