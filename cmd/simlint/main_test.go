package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// simlint runs the tool with args inside the test module under testdata/mod,
// whose own go.mod makes `go list` resolve patterns against it.
func simlint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", "mod")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestPlantedFinding: an unsuppressed finding prints as
// "file:line:col: [rule] message" and makes the exit status 1.
func TestPlantedFinding(t *testing.T) {
	code, stdout, stderr := simlint(t, "./internal/machine")
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want nothing", stdout)
	}
	want := filepath.Join("internal", "machine", "clock.go") +
		":9:9: [determinism] wall-clock read time.Now in a simulator package"
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], want) {
		t.Errorf("stderr = %q, want one line containing %q", stderr, want)
	}
}

// TestSuppressedFinding: a finding under a reasoned //simlint:ignore does
// not fail the run, and -json still lists it with its reason.
func TestSuppressedFinding(t *testing.T) {
	if code, stdout, stderr := simlint(t, "./internal/npb"); code != 0 || stdout != "" || stderr != "" {
		t.Errorf("plain run: exit %d, stdout %q, stderr %q; want 0 and no output", code, stdout, stderr)
	}
	code, stdout, stderr := simlint(t, "-json", "./internal/npb")
	if code != 0 || stderr != "" {
		t.Errorf("-json run: exit %d, stderr %q; want 0 and no stderr", code, stderr)
	}
	var got []finding
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("-json output %q: %v", stdout, err)
	}
	if len(got) != 1 {
		t.Fatalf("-json listed %d findings, want 1: %+v", len(got), got)
	}
	f := got[0]
	if f.Rule != "determinism" || f.Package != "lintdemo/internal/npb" || !f.Suppressed ||
		f.SuppressReason != "the seed only names a temporary directory, never a counter" {
		t.Errorf("finding = %+v, want a suppressed determinism finding with its reason", f)
	}
	if !strings.Contains(stdout, `"suppressed": true`) {
		t.Errorf("-json output lacks \"suppressed\": true:\n%s", stdout)
	}
}

// TestCleanPackage: a clean package prints an empty JSON array, not null.
func TestCleanPackage(t *testing.T) {
	code, stdout, _ := simlint(t, "-json", "./clean")
	if code != 0 || stdout != "[]\n" {
		t.Errorf("exit %d, stdout %q; want 0 and \"[]\\n\"", code, stdout)
	}
}

// TestOnlyJSONFlag: -json is the tool's one flag; any other is a usage
// error.
func TestOnlyJSONFlag(t *testing.T) {
	code, _, stderr := simlint(t, "-lockorder.order", "A < B", "./clean")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("exit %d, stderr %q; want 2 and an undefined-flag error", code, stderr)
	}
}
