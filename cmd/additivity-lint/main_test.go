package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"additivity/internal/analysis/analysistest"
)

// buildLint compiles the additivity-lint binary once into a temp dir.
func buildLint(t *testing.T, root string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "additivity-lint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/additivity-lint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runLint executes the built binary and returns combined output and
// exit code.
func runLint(t *testing.T, root, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("run %v: %v\n%s", args, err, out)
	return "", -1
}

// TestSmoke is the end-to-end contract of the lint tool: the known-bad
// fixtures trip every check with exit 1, and the repository itself is
// clean with exit 0. It also holds go vet's copylocks check, which
// owns lock copies: vet must report the serving fixture's three copies
// and pass the tree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and typechecks the module twice")
	}
	root := analysistest.ModuleRoot(t)
	bin := buildLint(t, root)

	fixtures := []string{
		"./internal/analysis/passes/determinism/testdata/src/detfix",
		"./internal/analysis/passes/floatcmp/testdata/src/floatcmpfix",
		"./internal/analysis/passes/fingerprint/testdata/src/fingerprintfix",
		"./internal/analysis/passes/serving/testdata/src/servingfix",
		"./internal/analysis/passes/serving/testdata/src/servingctxfix",
	}
	out, code := runLint(t, root, bin, fixtures...)
	if code != 1 {
		t.Fatalf("fixture run: exit %d, want 1\n%s", code, out)
	}
	for _, check := range []string{
		"(determinism)", "(floatcmp)", "(fingerprint)", "(serving)",
	} {
		if !strings.Contains(out, check) {
			t.Errorf("fixture run: no %s finding in output:\n%s", check, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, ".go:") {
			t.Errorf("finding without file:line position: %q", line)
		}
	}

	out, code = runLint(t, root, bin, "./...")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("tree run: exit %d, want 0 with no findings\n%s", code, out)
	}

	out, err := goVetCopylocks(root, "./internal/analysis/passes/serving/testdata/src/servingfix")
	for _, want := range []string{
		"copyParam passes lock by value", "copies lock value to snapshot", "range var h copies lock",
	} {
		if err == nil || !strings.Contains(out, want) {
			t.Errorf("go vet -copylocks on the serving fixture: %v, want %q\n%s", err, want, out)
		}
	}
	if out, err := goVetCopylocks(root, "./..."); err != nil {
		t.Fatalf("go vet -copylocks ./...: %v\n%s", err, out)
	}
}

// goVetCopylocks runs go vet's copylocks check alone on the patterns.
func goVetCopylocks(root string, patterns ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"vet", "-copylocks"}, patterns...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestListAndBadCheck covers the flag surface: -list names every pass,
// and an unknown -checks value is a usage error (exit 2).
func TestListAndBadCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	root := analysistest.ModuleRoot(t)
	bin := buildLint(t, root)

	out, code := runLint(t, root, bin, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d\n%s", code, out)
	}
	for _, name := range []string{
		"determinism", "floatcmp", "fingerprint", "serving",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}

	out, code = runLint(t, root, bin, "-checks", "nosuchcheck", "./...")
	if code != 2 {
		t.Fatalf("unknown check: exit %d, want 2\n%s", code, out)
	}
}

// TestReportSuppressions covers the inventory mode: the repository's
// own directives are all well-formed and name registered checks (exit
// 0), while a directive naming an unregistered check fails (exit 1).
func TestReportSuppressions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	root := analysistest.ModuleRoot(t)
	bin := buildLint(t, root)

	out, code := runLint(t, root, bin, "-report-suppressions", "./...")
	if code != 0 {
		t.Fatalf("tree inventory: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "suppression(s)") {
		t.Errorf("tree inventory missing summary line:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasSuffix(line, "suppression(s)") {
			continue
		}
		if !strings.Contains(line, ".go:") {
			t.Errorf("inventory line without file:line position: %q", line)
		}
	}

	out, code = runLint(t, root, bin, "-report-suppressions",
		"./cmd/additivity-lint/testdata/src/supfix")
	if code != 1 {
		t.Fatalf("unknown-check inventory: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, `unknown check "nosuchcheck"`) {
		t.Errorf("unknown-check inventory: missing unknown-check error:\n%s", out)
	}
}
