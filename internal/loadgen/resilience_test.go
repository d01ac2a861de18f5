package loadgen

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"additivity/internal/memo"
	"additivity/internal/service"
)

// fastTrace builds a short all-analytic-predict trace: every job
// settles synchronously on the daemon's fast path, so resilience tests
// spend their time in the retry machinery, not in measurement.
func fastTrace(t *testing.T, jobs int) *Trace {
	t.Helper()
	trace, err := GenerateTrace(GenConfig{Jobs: jobs, Distinct: 4, Seed: 7, PredictShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// newDaemon boots a cache-backed service on an httptest listener.
func newDaemon(t *testing.T, opts service.Options) *httptest.Server {
	t.Helper()
	if opts.Cache == nil {
		cache, err := memo.New(memo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = cache
	}
	if opts.MaxConcurrentJobs == 0 {
		opts.MaxConcurrentJobs = 4
	}
	ts := httptest.NewServer(service.NewServer(opts))
	t.Cleanup(ts.Close)
	return ts
}

// collectResults returns an OnResult callback recording a copy of each
// payload by trace position, plus the backing slice.
func collectResults(n int) (func(int, []byte), [][]byte, *sync.Mutex) {
	results := make([][]byte, n)
	var mu sync.Mutex
	return func(index int, result []byte) {
		mu.Lock()
		results[index] = append([]byte(nil), result...)
		mu.Unlock()
	}, results, &mu
}

// A 429 submit answer is backpressure, not an error: the player backs
// off, retries, and the report counts the shed responses separately
// from hard failures.
func TestPlayRetriesShedSubmits(t *testing.T) {
	trace := fastTrace(t, 6)
	daemon := newDaemon(t, service.Options{})

	// Shed the first two submissions at the edge, then pass everything
	// through to the real daemon.
	var submits atomic.Int64
	edge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && submits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":{"code":"overloaded"}}`, http.StatusTooManyRequests)
			return
		}
		proxyTo(t, daemon.URL, w, r)
	}))
	t.Cleanup(edge.Close)

	report, err := Play(PlayConfig{BaseURL: edge.URL, Trace: trace, Players: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || report.Aborted != 0 {
		t.Fatalf("shed replay had hard failures: %+v", report)
	}
	if report.Succeeded != len(trace.Jobs) {
		t.Fatalf("succeeded = %d, want %d", report.Succeeded, len(trace.Jobs))
	}
	if report.Shed != 2 {
		t.Fatalf("shed = %d, want 2 (errors: %v)", report.Shed, report.Errors)
	}
	if report.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2", report.Retries)
	}
	if report.Draining != 0 {
		t.Fatalf("draining = %d, want 0", report.Draining)
	}
}

// A 503 answer (a draining replica) is counted as draining and
// retried, never surfaced as a failure.
func TestPlayRetriesDrainingSubmits(t *testing.T) {
	trace := fastTrace(t, 4)
	daemon := newDaemon(t, service.Options{})

	var submits atomic.Int64
	edge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && submits.Add(1) <= 3 {
			http.Error(w, `{"error":{"code":"draining"}}`, http.StatusServiceUnavailable)
			return
		}
		proxyTo(t, daemon.URL, w, r)
	}))
	t.Cleanup(edge.Close)

	report, err := Play(PlayConfig{BaseURL: edge.URL, Trace: trace, Players: 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || report.Succeeded != len(trace.Jobs) {
		t.Fatalf("draining replay: %+v", report)
	}
	if report.Draining != 3 || report.Shed != 0 {
		t.Fatalf("draining = %d shed = %d, want 3 and 0", report.Draining, report.Shed)
	}
}

// A submit-path 4xx other than 429 means the request itself is bad;
// retrying cannot fix it, so it fails fast instead of burning the
// whole per-job budget.
func TestPlayDoesNotRetryBadRequests(t *testing.T) {
	trace := fastTrace(t, 2)
	edge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"invalid_request"}}`, http.StatusBadRequest)
	}))
	t.Cleanup(edge.Close)

	report, err := Play(PlayConfig{BaseURL: edge.URL, Trace: trace, Players: 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != len(trace.Jobs) {
		t.Fatalf("failed = %d, want %d: %+v", report.Failed, len(trace.Jobs), report)
	}
	if report.Retries != 0 {
		t.Fatalf("retries = %d, want 0 (4xx must not be retried)", report.Retries)
	}
}

// closedURL returns the URL of a listener that is already closed:
// connections are refused, the shape a SIGKILLed replica leaves behind.
func closedURL(t *testing.T) string {
	t.Helper()
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + dead.Addr().String()
	dead.Close()
	return url
}

// With one replica of the fleet dead, every job lands on the survivor
// and the replay still ends clean with full results. Attempt a of
// position p goes to replica (p+a) % 2, so each position whose first
// attempt hits the dead replica pays one retry on the live one. With
// the dead replica in either slot that is half the positions (the even
// ones when it is first, the odd ones when it is last), so the retry
// bill is exactly len/2 either way.
func TestPlayFailsOverToSurvivingReplica(t *testing.T) {
	trace := fastTrace(t, 8)
	daemon := newDaemon(t, service.Options{})
	dead := closedURL(t)

	for _, tc := range []struct {
		name     string
		baseURLs []string
	}{
		{"dead-first", []string{dead, daemon.URL}},
		{"dead-last", []string{daemon.URL, dead}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onResult, results, mu := collectResults(len(trace.Jobs))
			report, err := Play(PlayConfig{
				BaseURLs: tc.baseURLs,
				Trace:    trace,
				Players:  4,
				OnResult: onResult,
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Failed != 0 || report.Aborted != 0 {
				t.Fatalf("failover replay had hard failures: %+v", report)
			}
			if report.Succeeded != len(trace.Jobs) {
				t.Fatalf("succeeded = %d, want %d", report.Succeeded, len(trace.Jobs))
			}
			if want := len(trace.Jobs) / 2; report.Retries != want {
				t.Fatalf("retries = %d, want %d (one per position that starts on the dead replica)", report.Retries, want)
			}
			mu.Lock()
			defer mu.Unlock()
			for i, res := range results {
				if res == nil {
					t.Fatalf("trace position %d has no result after failover", i)
				}
				// Duplicate identities must still agree byte for byte.
				for j := 0; j < i; j++ {
					if traceJobsEqual(trace, i, j) && !bytes.Equal(results[i], results[j]) {
						t.Fatalf("positions %d and %d share an identity but disagree", i, j)
					}
				}
			}
		})
	}
}

// Against a dead endpoint every job fails once its PerJobTimeout
// budget runs out: Play itself returns no error, the report counts
// each job failed, and the replay ends within a few budgets instead of
// hanging.
func TestPlayDeadEndpointFailsFast(t *testing.T) {
	trace := fastTrace(t, 3)
	cfg := PlayConfig{
		BaseURL:       closedURL(t),
		Trace:         trace,
		Players:       1,
		PerJobTimeout: 200 * time.Millisecond,
	}
	var report *Report
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		report, err = Play(cfg)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("dead-endpoint replay still running after 10s")
	}
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != len(trace.Jobs) || report.Succeeded != 0 {
		t.Fatalf("dead endpoint: %+v, want all %d jobs failed", report, len(trace.Jobs))
	}
}

// Chaos drops and slow-loris reads are absorbed by the retry loop: the
// replay ends with zero failures, every payload intact, and the chaos
// counters prove faults actually fired.
func TestPlaySurvivesChaos(t *testing.T) {
	trace := fastTrace(t, 20)
	daemon := newDaemon(t, service.Options{})

	onResult, results, mu := collectResults(len(trace.Jobs))
	report, err := Play(PlayConfig{
		BaseURL: daemon.URL,
		Trace:   trace,
		Players: 4,
		Chaos: &ChaosConfig{
			Seed:      42,
			DropRate:  0.25,
			SlowRate:  0.25,
			SlowChunk: 64,
			SlowDelay: 200 * time.Microsecond,
		},
		OnResult: onResult,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || report.Aborted != 0 {
		t.Fatalf("chaos replay had hard failures: %+v", report)
	}
	if report.Succeeded != len(trace.Jobs) {
		t.Fatalf("succeeded = %d, want %d", report.Succeeded, len(trace.Jobs))
	}
	if report.ChaosDrops == 0 {
		t.Fatal("chaos replay injected no drops; the fault path went unexercised")
	}
	if report.ChaosSlows == 0 {
		t.Fatal("chaos replay injected no slow reads")
	}
	if report.Retries < report.ChaosDrops {
		t.Fatalf("retries = %d < chaos drops = %d; dropped exchanges must be retried",
			report.Retries, report.ChaosDrops)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, res := range results {
		if res == nil {
			t.Fatalf("trace position %d has no result under chaos", i)
		}
	}
}

// The slow-loris body must stall the reader without changing a byte.
func TestSlowBodyPreservesBytes(t *testing.T) {
	payload := strings.Repeat("additivity", 200)
	sb := &slowBody{
		body:  io.NopCloser(strings.NewReader(payload)),
		chunk: 37,
		delay: time.Microsecond,
	}
	defer sb.Close()
	got, err := io.ReadAll(sb)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatalf("slow body corrupted the payload: %d bytes vs %d", len(got), len(payload))
	}
}

// Chaos configuration is validated up front.
func TestPlayRejectsBadChaosRates(t *testing.T) {
	trace := fastTrace(t, 2)
	for _, cfg := range []ChaosConfig{{DropRate: -0.1}, {DropRate: 1.5}, {SlowRate: 2}} {
		chaos := cfg
		_, err := Play(PlayConfig{BaseURL: "http://127.0.0.1:1", Trace: trace, Chaos: &chaos})
		if err == nil || !strings.Contains(err.Error(), "chaos rates") {
			t.Fatalf("chaos %+v: err = %v, want rate validation error", cfg, err)
		}
	}
}

func TestPlayRequiresBaseURL(t *testing.T) {
	trace := fastTrace(t, 2)
	if _, err := Play(PlayConfig{Trace: trace}); err == nil {
		t.Fatal("Play without BaseURL(s) must fail")
	}
	if _, err := Play(PlayConfig{BaseURLs: []string{"http://ok", ""}, Trace: trace}); err == nil {
		t.Fatal("Play with an empty replica URL must fail")
	}
}

// traceJobsEqual reports whether two trace positions share a job
// identity (same canonical request).
func traceJobsEqual(tr *Trace, i, j int) bool {
	a, errA := service.CanonicalRequest(tr.Jobs[i])
	b, errB := service.CanonicalRequest(tr.Jobs[j])
	return errA == nil && errB == nil && a == b
}

// proxyTo forwards one request to the backing daemon verbatim and
// copies the answer back — a minimal fault-injecting edge for tests.
func proxyTo(t *testing.T, base string, w http.ResponseWriter, r *http.Request) {
	t.Helper()
	url := base + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequest(r.Method, url, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		t.Logf("proxy copy: %v", err)
	}
}
