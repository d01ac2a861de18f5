package main

import (
	"bufio"
	"debug/buildinfo"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// envBlock records where a run was measured.
type envBlock struct {
	GoVersion       string `json:"go_version"`
	DaemonGoVersion string `json:"daemon_go_version"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	NProc           int    `json:"nproc"`
	CPUModel        string `json:"cpu_model"`
	// Commit and Dirty come from the daemon's embedded VCS stamp:
	// "unknown" when it was built outside a git checkout.
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
	Race   bool   `json:"race"`
}

// readEnv describes this process, the machine and the daemon binary. A
// daemon built with -race is refused: its numbers measure the race
// detector, not the daemon.
func readEnv(daemon string) (envBlock, error) {
	e := envBlock{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	info, err := buildinfo.ReadFile(daemon)
	if err != nil {
		return e, fmt.Errorf("read build info of %s: %w", daemon, err)
	}
	e.DaemonGoVersion = info.GoVersion
	for _, s := range info.Settings {
		switch s.Key {
		case "-race":
			e.Race = s.Value == "true"
		case "vcs.revision":
			e.Commit = s.Value
		case "vcs.modified":
			e.Dirty = s.Value
		}
	}
	if e.Race {
		return e, fmt.Errorf("%s was built with -race; refusing to record", daemon)
	}
	return e, nil
}

func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// findRoot walks up from the working directory to the additivity
// module's root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(raw), "\n"); strings.TrimSpace(first) == "module additivity" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no additivity module root above the working directory")
		}
		dir = parent
	}
}

// scratchTTL is how long an invocation's scratch dir outlives it.
const scratchTTL = 2 * time.Hour

// newScratch makes this invocation's scratch dir below root, after
// removing the dirs of invocations older than scratchTTL. Cache dirs are
// not deleted as soon as a phase ends: on a filesystem mounted with
// online discard, deleting thousands of entries slows fsyncs for many
// seconds afterwards, which would land in the timing of the phases and
// runs that follow. Keeping them for a while leaves a run of back-to-back
// invocations undisturbed.
func newScratch(root string, now time.Time) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	list, err := os.ReadDir(root)
	if err != nil {
		return "", err
	}
	for _, e := range list {
		info, err := e.Info()
		if err != nil || now.Sub(info.ModTime()) <= scratchTTL {
			continue
		}
		if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
			return "", err
		}
	}
	return os.MkdirTemp(root, "run-")
}

// buildDaemon compiles additivityd from the module at root into out,
// without the race detector whatever GOFLAGS says.
func buildDaemon(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/additivityd")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build additivityd: %w\n%s", err, msg)
	}
	return nil
}
