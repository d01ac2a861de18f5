package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles the command into a temp dir and returns its path.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "repro-tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run returns the binary's stdout and stderr. Progress and cache lines
// go to stderr and are not part of the byte-identity contract.
func run(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("repro-tables %v: %v\n%s", args, err, errOut.Bytes())
	}
	return out.Bytes(), errOut.Bytes()
}

// The -chaos and -checkpoint flags must not change the rendered tables:
// recoverable faults are absorbed by retry, and a journaled run replays
// the same values — whether the journal is complete or was cut off by
// a SIGKILL mid-run, possibly mid-line.
func TestSmokeChaosAndCheckpointPreserveTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildBinary(t)

	clean, _ := run(t, bin, "-table", "study")
	chaotic, _ := run(t, bin, "-table", "study", "-chaos", "0.3")
	if !bytes.Equal(clean, chaotic) {
		t.Error("-chaos 0.3 changed the study tables")
	}

	dir := t.TempDir()
	first, _ := run(t, bin, "-table", "study", "-checkpoint", dir)
	resumed, _ := run(t, bin, "-table", "study", "-checkpoint", dir)
	if !bytes.Equal(clean, first) || !bytes.Equal(clean, resumed) {
		t.Error("-checkpoint changed the study tables")
	}

	// SIGKILL a journaled run once its journal holds a complete unit,
	// then resume from whatever the kill left behind.
	dir = t.TempDir()
	cmd := exec.Command(bin, "-table", "study", "-checkpoint", dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	for !journalHasLine(t, dir) {
		select {
		case err := <-exited:
			t.Fatalf("journaled run ended (%v) before its journal held a complete line", err)
		case <-time.After(time.Millisecond):
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	var exit *exec.ExitError
	if err := <-exited; !errors.As(err, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("journaled run ended with %v before the SIGKILL landed", err)
	}
	if resumed, _ := run(t, bin, "-table", "study", "-checkpoint", dir); !bytes.Equal(clean, resumed) {
		t.Error("resuming a SIGKILLed run changed the study tables")
	}
}

// journalHasLine reports whether a study journal in dir holds at least
// one complete line.
func journalHasLine(t *testing.T, dir string) bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "study-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(data, '\n') >= 0 {
			return true
		}
	}
	return false
}

// cacheLine matches the stderr statistics line of a -cache-dir run.
var cacheLine = regexp.MustCompile(`cache: (\d+) hits, (\d+) disk hits`)

// A -cache-dir run renders the uncached tables byte for byte, cold or
// warm, and the warm run serves its units from the cache.
func TestSmokeCacheDirWarmRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildBinary(t)
	dir := t.TempDir()

	plain, _ := run(t, bin, "-table", "study")
	cold, _ := run(t, bin, "-table", "study", "-cache-dir", dir)
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Fatalf("cold run persisted no cache entries (err %v)", err)
	}
	warm, stderr := run(t, bin, "-table", "study", "-cache-dir", dir)
	if !bytes.Equal(plain, cold) || !bytes.Equal(plain, warm) {
		t.Error("-cache-dir changed the study tables")
	}
	// The last statistics line covers the whole run.
	all := cacheLine.FindAllSubmatch(stderr, -1)
	if all == nil {
		t.Fatalf("warm run printed no cache statistics:\n%s", stderr)
	}
	m := all[len(all)-1]
	hits, _ := strconv.Atoi(string(m[1]))
	diskHits, _ := strconv.Atoi(string(m[2]))
	if hits+diskHits == 0 {
		t.Errorf("warm run served nothing from the cache:\n%s", stderr)
	}
}
