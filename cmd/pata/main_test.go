package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-exec the test binary as the pata command:
// with PATA_BE_CLI=1 the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PATA_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs pata with args and returns its stderr and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "PATA_BE_CLI=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stderr.String(), cmd.ProcessState.ExitCode()
}

// TestErrorPrefixedOnce pins that analysis errors, which the pata library
// already prefixes, print with one "pata: " prefix, not two.
func TestErrorPrefixedOnce(t *testing.T) {
	dir := t.TempDir()
	stderr, code := runCLI(t, "-dir", dir)
	if want := "pata: no .c files under " + dir + "\n"; stderr != want || code != 1 {
		t.Errorf("empty dir: exit %d, stderr %q; want exit 1, stderr %q", code, stderr, want)
	}

	bad := filepath.Join(dir, "bad.c")
	if err := os.WriteFile(bad, []byte("int f( {"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, code = runCLI(t, bad)
	if !strings.HasPrefix(stderr, "pata: frontend: ") || strings.Contains(stderr, "pata: pata:") || code != 1 {
		t.Errorf("parse error: exit %d, stderr %q; want exit 1 and one \"pata: frontend: \" prefix", code, stderr)
	}

	good := filepath.Join(dir, "good.c")
	if err := os.WriteFile(good, []byte("int f(int x) { return x; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, code = runCLI(t, "-validate-backend", "z3", good)
	if !strings.HasPrefix(stderr, "pata: ") || strings.Contains(stderr, "pata: pata:") || code != 1 {
		t.Errorf("bad backend: exit %d, stderr %q; want exit 1 and one \"pata: \" prefix", code, stderr)
	}
}
