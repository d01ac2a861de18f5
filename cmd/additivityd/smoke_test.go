package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles the daemon into a temp dir and returns its
// path. The daemon is race-instrumented exactly when this test binary
// is, so a race in a replica fails the test that booted it.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "additivityd")
	args := []string{"build", "-o", bin}
	if raceEnabled() {
		args = append(args, "-race")
	}
	if out, err := exec.Command("go", append(args, ".")...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// raceEnabled reports whether this test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// daemon is one running additivityd under test. done is closed when
// the process exits (so any number of waiters can observe it); waitErr
// holds the exit error and stderr the complete log once done is
// closed. addr and args (the flags after -addr) reboot it in place.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	args    []string
	baseURL string
	done    chan struct{}
	waitErr error
	stderr  *bytes.Buffer
}

// wait blocks until the daemon process exits or the timeout passes.
func (d *daemon) wait(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case <-d.done:
		return d.waitErr
	case <-time.After(timeout):
		t.Fatalf("daemon did not exit within %s\nstderr: %s", timeout, d.stderr.String())
		return nil
	}
}

// startDaemon boots the binary on addr (port 0 for an ephemeral port)
// and waits for the "listening on" stdout line that announces the
// bound address.
func startDaemon(t *testing.T, bin, addr string, extraArgs ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extraArgs...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, args: extraArgs, done: make(chan struct{}), stderr: &stderr}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-d.done
	})

	lineCh := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		lineCh <- strings.TrimSpace(line)
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case line := <-lineCh:
		bound, ok := strings.CutPrefix(line, "listening on ")
		if !ok {
			t.Fatalf("first stdout line = %q, want listening-on announcement\nstderr: %s", line, stderr.String())
		}
		d.addr = bound
		d.baseURL = "http://" + bound
	case <-d.done:
		t.Fatalf("daemon exited before announcing its address: %v\nstderr: %s", d.waitErr, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not announce its address\nstderr: %s", stderr.String())
	}
	return d
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, data
}

// The daemon must boot, serve /healthz and /statsz, run a submitted job
// to done, and on SIGTERM drain in-flight work and exit 0.
func TestSmokeServeAndSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildBinary(t)
	d := startDaemon(t, bin, "127.0.0.1:0", "-max-jobs", "4")

	if code, body := getBody(t, d.baseURL+"/healthz"); code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	// Submit one job, then immediately SIGTERM: the drain must let the
	// in-flight job finish before the process exits.
	resp, err := http.Post(d.baseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"check","params":{"compounds":2,"reps":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit = HTTP %d id %q, want 202 with an id", resp.StatusCode, st.ID)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(t, 30*time.Second); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\nstderr: %s", err, d.stderr.String())
	}
	// The drain log line accounts for the in-flight job finishing.
	if logs := d.stderr.String(); !strings.Contains(logs, "drained: 1 jobs done, 0 failed, 0 aborted") {
		t.Errorf("drain log does not report the in-flight job done:\n%s", logs)
	}
}

// While draining, new submissions are refused with the structured 503
// envelope.
func TestSmokeDrainingRefusesSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildBinary(t)
	d := startDaemon(t, bin, "127.0.0.1:0", "-max-jobs", "1", "-drain-timeout", "20s")

	// Park a slow job on the single slot plus one queued duplicate-free
	// job behind it, so the daemon is mid-drain long enough to probe.
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"kind":"check","params":{"seed":%d,"compounds":40,"reps":5}}`, 7000+i)
		resp, err := http.Post(d.baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = HTTP %d, want 202", i, resp.StatusCode)
		}
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The daemon keeps serving HTTP while the drain runs; submissions
	// must bounce with the draining error code.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(d.baseURL+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"check","params":{"compounds":2}}`))
		if err != nil {
			// The daemon may already have finished draining and closed
			// the listener — that is a valid fast-drain outcome.
			break
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !bytes.Contains(data, []byte(`"draining"`)) {
				t.Fatalf("503 body %q does not carry the draining code", data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission during drain = HTTP %d %q, want 503", resp.StatusCode, data)
		}
	}

	if err := d.wait(t, 30*time.Second); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\nstderr: %s", err, d.stderr.String())
	}
}
