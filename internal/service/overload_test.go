package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"additivity/internal/memo"
)

// postJob submits raw JSON and returns the response (caller closes).
func postJob(t *testing.T, ts *httptest.Server, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// A full accept queue sheds pooled submissions with 429 "overloaded"
// and a Retry-After, flips /healthz to degraded, keeps the fast path
// un-shed, and recovers completely once the backlog drains.
func TestOverloadShedsWith429(t *testing.T) {
	cache, err := memo.New(memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Cache: cache, MaxConcurrentJobs: 1, MaxQueuedJobs: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Occupy the whole pool so queued jobs cannot start.
	srv.sem <- struct{}{}
	released := false
	release := func() {
		if !released {
			released = true
			<-srv.sem
		}
	}
	defer release()

	// Two submissions fill the queue.
	ids := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"kind":"check","params":{"compounds":2,"reps":2,"seed":%d}}`, 100+i)
		st := submit(t, ts, body)
		if st.State != StateQueued {
			t.Fatalf("submission %d state = %s, want queued", i, st.State)
		}
		ids = append(ids, st.ID)
	}

	// The third pooled submission is shed.
	resp := postJob(t, ts, "/v1/jobs", `{"kind":"check","params":{"compounds":2,"reps":2,"seed":200}}`)
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = HTTP %d, want 429: %s", resp.StatusCode, data)
	}
	if code := decodeErrorBody(t, data); code != "overloaded" {
		t.Fatalf("shed error code = %q, want overloaded", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response must carry Retry-After")
	}

	// The fast path still answers while the queue is saturated.
	fast := postJob(t, ts, "/v1/jobs?result=1", `{"kind":"predict","params":{"tier":"analytic"}}`)
	fastBody, _ := io.ReadAll(fast.Body)
	fast.Body.Close()
	if fast.StatusCode != http.StatusAccepted || !strings.Contains(string(fastBody), `"state":"done"`) {
		t.Fatalf("fast path under overload = HTTP %d: %s", fast.StatusCode, fastBody)
	}

	st := srv.Stats()
	if st.Shed != 1 || st.QueueDepth != 2 || st.QueueLimit != 2 || !st.Degraded {
		t.Fatalf("overloaded stats: %+v", st)
	}
	if uint64(st.QueueDepth) != st.Jobs.Queued {
		t.Fatalf("queue_depth %d != jobs.queued %d: the accept queue is the queued count", st.QueueDepth, st.Jobs.Queued)
	}
	if code, body := getBody(t, ts, "/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "degraded: job queue saturated") {
		t.Fatalf("saturated healthz = %d %q", code, body)
	}

	// Backlog drains: both queued jobs settle and health returns to ok.
	release()
	for _, id := range ids {
		if final := pollUntilTerminal(t, ts, id); final.State != StateDone {
			t.Fatalf("queued job %s = %s (%s), want done", id, final.State, final.Error)
		}
	}
	if st := srv.Stats(); st.QueueDepth != 0 || st.Degraded {
		t.Fatalf("post-drain stats: %+v", st)
	}
	if code, body := getBody(t, ts, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("recovered healthz = %d %q", code, body)
	}
}

// A per-request deadline bounds a job's whole lifetime, queue wait
// included: a job parked behind a saturated pool aborts with "job
// deadline exceeded" and is counted.
func TestJobDeadlineExceeded(t *testing.T) {
	cache, err := memo.New(memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Cache: cache, MaxConcurrentJobs: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	resp := postJob(t, ts, "/v1/jobs?timeout=50ms&wait=5s", `{"kind":"check","params":{"compounds":2,"reps":2}}`)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = HTTP %d", resp.StatusCode)
	}
	if st.State != StateAborted || st.Error != "job deadline exceeded" {
		t.Fatalf("deadlined job = %s (%q), want aborted with deadline message", st.State, st.Error)
	}
	stats := srv.Stats()
	if stats.DeadlineExceeded != 1 || stats.Jobs.Aborted != 1 || stats.QueueDepth != 0 {
		t.Fatalf("deadline stats: %+v", stats)
	}
	checkJobsAddUp(t, stats.Jobs)
}

func TestInvalidTimeoutIs400(t *testing.T) {
	_, ts := newTestServer(t)
	for _, bad := range []string{"nope", "-1s", "0s"} {
		resp := postJob(t, ts, "/v1/jobs?timeout="+bad, `{"kind":"predict","params":{}}`)
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout=%s = HTTP %d, want 400: %s", bad, resp.StatusCode, data)
		}
		if code := decodeErrorBody(t, data); code != "invalid_request" {
			t.Fatalf("timeout=%s error code = %q", bad, code)
		}
	}
}

// A sick cache directory opens the disk breaker; the service keeps
// answering (compute-without-cache) and reports itself degraded.
func TestHealthzDegradedOnBreakerOpen(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	cache, err := memo.New(memo.Options{Dir: dir, DisableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Cache: cache, MaxConcurrentJobs: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Analytic predictions settle synchronously and each tries to
	// persist its payload; enough store failures open the breaker.
	for i := 0; cache.BreakerState() != memo.BreakerOpen; i++ {
		if i > 100 {
			t.Fatalf("breaker never opened: %+v", cache.Stats())
		}
		body := fmt.Sprintf(`{"kind":"predict","params":{"tier":"analytic","app_size":%d}}`, 1000+i)
		resp := postJob(t, ts, "/v1/jobs?result=1", body)
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(data), `"state":"done"`) {
			t.Fatalf("request %d must succeed without the disk: HTTP %d %s", i, resp.StatusCode, data)
		}
	}
	if code, body := getBody(t, ts, "/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "degraded: cache disk breaker open") {
		t.Fatalf("breaker-open healthz = %d %q", code, body)
	}
	st := srv.Stats()
	if st.Breaker != string(memo.BreakerOpen) || !st.Degraded {
		t.Fatalf("breaker stats: %+v", st)
	}
}
