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
// binary with MPCRUN_AS_MAIN=1, so the table below sees the real exit code
// and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("MPCRUN_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValidation: a flag value the query builders or the data
// generators cannot take exits 2 with a one-line message, never a panic.
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
		{"-family chain -k 2 -m 50 -p 4", 0, ""},
		{"-family cycle -k 2 -m 50 -p 4", 0, ""},
		{"-family triangle -k 0 -m 50 -p 4", 0, ""},
		{"-family chain -k 0", 2, "mpcrun: -family chain needs -k >= 1, got 0"},
		{"-family star -k 0", 2, "mpcrun: -family star needs -k >= 1, got 0"},
		{"-family spokedwheel -k -1", 2, "mpcrun: -family spokedwheel needs -k >= 1, got -1"},
		{"-family cycle -k 1", 2, "mpcrun: -family cycle needs -k >= 2, got 1"},
		{"-m -5", 2, "mpcrun: -m must be non-negative, got -5"},
		{"-family square", 2, `mpcrun: unknown family "square"`},
		{"-algo nope -m 50", 2, `mpcrun: unknown algorithm "nope"`},
		{"-algo star -m 50", 2, `mpcrun: unknown algorithm "star"`},
	} {
		cmd := exec.Command(exe, strings.Fields(tc.args)...)
		cmd.Env = append(os.Environ(), "MPCRUN_AS_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("mpcrun %s: %v", tc.args, err)
		}
		got := strings.TrimSpace(stderr.String())
		if code != tc.code || got != tc.msg {
			t.Errorf("mpcrun %s: exit %d, stderr %q; want exit %d, stderr %q", tc.args, code, got, tc.code, tc.msg)
		}
	}
}
