package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when TestFlags re-executes this test binary
// with MPCBENCH_AS_MAIN=1, so the table below sees the real exit code,
// stdout and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("MPCBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlags: -quick prints every experiment, -only one of them, and an
// unknown id or flag exits 2 — never a panic.
func TestFlags(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args    string
		code    int
		headers int // experiment headers printed
		msg     string
	}{
		{"-quick", 0, 17, ""},
		{"-quick -only e12", 0, 1, ""},
		{"-only E99", 2, 0, `mpcbench: unknown experiment "E99"`},
		{"-md", 2, 0, "flag provided but not defined: -md"},
	} {
		cmd := exec.Command(exe, strings.Fields(tc.args)...)
		cmd.Env = append(os.Environ(), "MPCBENCH_AS_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("mpcbench %s: %v", tc.args, err)
		}
		got := strings.SplitN(strings.TrimSpace(stderr.String()), "\n", 2)[0]
		if code != tc.code || got != tc.msg {
			t.Errorf("mpcbench %s: exit %d, stderr %q; want exit %d, stderr %q", tc.args, code, got, tc.code, tc.msg)
		}
		out := stdout.String()
		if n := strings.Count(out, " — "); n != tc.headers {
			t.Errorf("mpcbench %s printed %d experiments, want %d", tc.args, n, tc.headers)
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("mpcbench %s printed a non-finite number:\n%s", tc.args, out)
		}
	}
}

func TestPrintRows(t *testing.T) {
	type row struct {
		Name   string
		Load   float64
		Shares []int
		OK     bool
	}
	var b bytes.Buffer
	printRows(&b, []row{{"C3", 1234.5678, []int{4, 4, 4}, true}, {"L10", 0.5, nil, false}})
	want := "Name  Load  Shares   OK\n" +
		"C3    1235  (4,4,4)  true\n" +
		"L10   0.5   ()       false\n"
	if b.String() != want {
		t.Errorf("printRows:\n%s\nwant:\n%s", b.String(), want)
	}
}
