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
// binary with MPCLOAD_AS_MAIN=1, so the table below sees the real exit code
// and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("MPCLOAD_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValidation: a flag value mpcload cannot run with exits 2 with a
// one-line message, never a panic or a run — in worker mode too, which is
// checked before any socket is opened.
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
		{"-m -5", 2, "mpcload: -m must be non-negative, got -5"},
		{"-p 0", 2, "mpcload: -p must be at least 1, got 0"},
		{"-p -3", 2, "mpcload: -p must be at least 1, got -3"},
		{"-requests 0", 2, "mpcload: -requests must be at least 1, got 0"},
		{"-requests -1", 2, "mpcload: -requests must be at least 1, got -1"},
		{"-m -5 -listen 127.0.0.1:1 -peers 127.0.0.1:1", 2, "mpcload: -m must be non-negative, got -5"},
		{"-p 0 -listen 127.0.0.1:1 -peers 127.0.0.1:1", 2, "mpcload: -p must be at least 1, got 0"},
		{"-listen 127.0.0.1:1", 2, "mpcload: worker mode needs both -listen and -peers"},
	} {
		cmd := exec.Command(exe, strings.Fields(tc.args)...)
		cmd.Env = append(os.Environ(), "MPCLOAD_AS_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("mpcload %s: %v", tc.args, err)
		}
		got := strings.TrimSpace(stderr.String())
		if code != tc.code || got != tc.msg {
			t.Errorf("mpcload %s: exit %d, stderr %q; want exit %d, stderr %q", tc.args, code, got, tc.code, tc.msg)
		}
	}
}
