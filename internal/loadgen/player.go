package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"additivity/internal/service"
)

// PlayConfig parameterises a trace replay against a running daemon or
// a fleet of replicas.
type PlayConfig struct {
	// BaseURL is the daemon's root URL, e.g. http://127.0.0.1:7909 —
	// the single-replica convenience form of BaseURLs.
	BaseURL string
	// BaseURLs lists every replica of the fleet. Attempt a of trace
	// position p goes to BaseURLs[(p+a) % len(BaseURLs)], so a failed
	// attempt always retries on the next replica — a replica killed
	// mid-trace costs one resubmit for each job routed to it, never a
	// failure. When both are set, BaseURLs wins.
	BaseURLs []string
	// Trace is the workload to replay.
	Trace *Trace
	// Players bounds the concurrent request drivers (default 8). Each
	// player owns one job at a time: submit, poll to terminal state,
	// fetch the result.
	Players int
	// Client is the HTTP client (default: a dedicated client with no
	// global timeout; per-job deadlines come from PerJobTimeout).
	Client *http.Client
	// PollWait is the long-poll window passed as ?wait= on status
	// polls (default 2s).
	PollWait time.Duration
	// PerJobTimeout bounds one job's submit-to-terminal wall time
	// (default 120s). A job past its deadline counts as failed.
	PerJobTimeout time.Duration
	// OnResult, when set, receives every done job's result payload,
	// keyed by the job's position in the trace. Called from player
	// goroutines; the callback must be safe for concurrent use.
	OnResult func(index int, result []byte)
	// Chaos, when set, injects seeded connection drops and slow-loris
	// reads into every exchange. The replay must still end clean: chaos
	// faults are absorbed by the retry loop, never surfaced as failures.
	Chaos *ChaosConfig

	// waitQuery is the precomputed "?wait=...&result=1" suffix shared by
	// every submit and poll URL, built once in fill.
	waitQuery string
	// stats collects the replay's resilience counters; one instance is
	// shared by every player (fill allocates it).
	stats *runStats
	// chaos is the installed fault-injecting transport, kept for its
	// counters (nil without Chaos).
	chaos *chaosTransport
}

// runStats holds the cross-player resilience counters of one replay.
type runStats struct {
	shed     atomic.Uint64
	draining atomic.Uint64
	retries  atomic.Uint64
}

// outcome codes for one trace position.
const (
	outcomePending = iota
	outcomeSuccess
	outcomeDegraded // done, but on incomplete data
	outcomeAborted
	outcomeFailed
	// outcomeRetry never reaches the report: it routes one failed
	// attempt back into playOne's retry loop.
	outcomeRetry
)

func (c *PlayConfig) fill() error {
	if len(c.BaseURLs) == 0 && c.BaseURL != "" {
		c.BaseURLs = []string{c.BaseURL}
	}
	if len(c.BaseURLs) == 0 {
		return fmt.Errorf("loadgen: PlayConfig.BaseURLs (or BaseURL) is required")
	}
	for i, u := range c.BaseURLs {
		u = strings.TrimRight(u, "/")
		if u == "" {
			return fmt.Errorf("loadgen: PlayConfig.BaseURLs[%d] is empty", i)
		}
		c.BaseURLs[i] = u
	}
	if c.Trace == nil || len(c.Trace.Jobs) == 0 {
		return fmt.Errorf("loadgen: PlayConfig.Trace must hold at least one job")
	}
	if c.Players < 0 {
		return fmt.Errorf("loadgen: PlayConfig.Players = %d, must not be negative", c.Players)
	}
	if c.Players == 0 {
		c.Players = 8
	}
	if c.Client == nil {
		// The zero http.Client keeps only two idle connections per host
		// (DefaultTransport's MaxIdleConnsPerHost), so a pool of more
		// than two players would constantly close and re-dial sockets —
		// dial and teardown syscalls then dominate the measured path.
		// Give the replay one reusable connection per player.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = c.Players
		c.Client = &http.Client{Transport: t}
	}
	if c.PollWait == 0 {
		c.PollWait = 2 * time.Second
	}
	if c.PerJobTimeout == 0 {
		c.PerJobTimeout = 120 * time.Second
	}
	if c.Chaos != nil {
		ct, err := newChaosTransport(c.Client.Transport, *c.Chaos)
		if err != nil {
			return err
		}
		// Wrap a shallow copy so the caller's client keeps its own
		// transport.
		cl := *c.Client
		cl.Transport = ct
		c.Client = &cl
		c.chaos = ct
	}
	c.waitQuery = "?wait=" + c.PollWait.String() + "&result=1"
	c.stats = &runStats{}
	return nil
}

// Play replays the trace: a bounded player pool drains a request
// channel in trace order, driving each job through submit → poll →
// result and measuring its end-to-end latency. The returned report
// carries latency percentiles and success/error/degraded counters.
//
// Wall-clock time is measured only here, in the harness — never in the
// service or the engine — so the measured system keeps its determinism
// contract while the measurement layer reports real latencies.
func Play(cfg PlayConfig) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := len(cfg.Trace.Jobs)
	latenciesMS := make([]float64, n)
	outcomes := make([]int32, n)
	errMsgs := make([]string, n)

	//lint:ignore determinism load-harness latency measurement: wall-clock stays in the harness, outside every result path
	start := time.Now()

	reqCh := make(chan int)
	var wg sync.WaitGroup
	for p := 0; p < cfg.Players; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range reqCh {
				ms, out, err := cfg.playOne(idx)
				// Trace positions are handed to exactly one player, so
				// these per-index writes never race; wg.Wait publishes
				// them to the report builder.
				latenciesMS[idx] = ms
				outcomes[idx] = int32(out)
				if err != nil {
					errMsgs[idx] = err.Error()
				}
			}
		}()
	}

	for i := 0; i < n; i++ {
		reqCh <- i
	}
	close(reqCh)
	wg.Wait()

	//lint:ignore determinism load-harness latency measurement: wall-clock stays in the harness
	elapsed := time.Since(start).Seconds()
	return buildReport(cfg, latenciesMS, outcomes, errMsgs, elapsed)
}

// retryBackoff is the pause before retry attempt n (1-based): a short
// bounded exponential ramp, long enough for a shedding queue to drain
// a slot, short enough that failover barely shows in the latency tail.
func retryBackoff(attempt int) time.Duration {
	if attempt > 5 {
		attempt = 5
	}
	return 10 * time.Millisecond << uint(attempt-1)
}

// playOne drives one trace position end to end and returns its
// latency in milliseconds and outcome. The reported latency covers the
// accepted attempt — submit to result on the replica that took the job
// — not the backpressure spent getting accepted; shed, draining and
// retry counts quantify that separately. PerJobTimeout still bounds
// the whole loop, every retry and backoff included.
func (cfg *PlayConfig) playOne(idx int) (float64, int, error) {
	body, err := json.Marshal(cfg.Trace.Jobs[idx])
	if err != nil {
		return 0, outcomeFailed, err
	}
	//lint:ignore determinism load-harness deadline bookkeeping: wall-clock stays in the harness
	deadline := time.Now().Add(cfg.PerJobTimeout)

	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			cfg.stats.retries.Add(1)
			time.Sleep(retryBackoff(attempt))
			//lint:ignore determinism load-harness deadline check: wall-clock stays in the harness
			if time.Now().After(deadline) {
				return 0, outcomeFailed, fmt.Errorf("trace position %d exhausted its %s budget after %d attempts: %w",
					idx, cfg.PerJobTimeout, attempt, lastErr)
			}
		}
		// Each retry moves to the next replica, so with two or more a
		// retry never lands where the failed attempt did.
		base := cfg.BaseURLs[(idx+attempt)%len(cfg.BaseURLs)]
		ms, out, err := cfg.attemptOne(idx, base, body, deadline)
		if out != outcomeRetry {
			return ms, out, err
		}
		lastErr = err
	}
}

// attemptOne drives one submit→poll→result pass against one replica.
// outcomeRetry means the attempt failed in a way another attempt (or
// another replica) can recover: the request was shed (429), the
// replica is draining (503), the transport failed mid-flight, or the
// replica lost the job. Job IDs are per-replica, so recovery is always
// a fresh submit — the content-addressed cache dedupes the underlying
// work fleet-wide, which is what keeps resubmits cheap and results
// byte-identical.
func (cfg *PlayConfig) attemptOne(idx int, base string, body []byte, deadline time.Time) (float64, int, error) {
	//lint:ignore determinism load-harness latency measurement: wall-clock stays in the harness
	t0 := time.Now()
	// Submit with a long-poll window and an inline result: jobs the
	// server settles within it (warm cache hits and analytic predictions
	// settle synchronously) come back already terminal with their payload
	// attached, collapsing the warm path to a single round-trip.
	st, err := cfg.postJSON(base+"/v1/jobs"+cfg.waitQuery, body)
	if err != nil {
		return 0, cfg.classify(err, true), err
	}
	for !st.State.Terminal() {
		//lint:ignore determinism load-harness deadline check: wall-clock stays in the harness
		if time.Now().After(deadline) {
			return 0, outcomeFailed, fmt.Errorf("job %s timed out after %s in state %s", st.ID, cfg.PerJobTimeout, st.State)
		}
		st, err = cfg.getStatus(base, st.ID)
		if err != nil {
			// A failed poll means the replica died, restarted (losing its
			// in-memory job registry) or the connection was severed; the
			// only recovery is a resubmit.
			return 0, cfg.classify(err, false), err
		}
	}
	switch st.State {
	case service.StateAborted:
		return 0, outcomeAborted, fmt.Errorf("job %s aborted: %s", st.ID, st.Error)
	case service.StateFailed:
		return 0, outcomeFailed, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	result := []byte(st.Result)
	if result == nil {
		result, err = cfg.getResult(base, st.ID)
		if err != nil {
			return 0, cfg.classify(err, false), err
		}
	}
	//lint:ignore determinism load-harness latency measurement: wall-clock stays in the harness
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if cfg.OnResult != nil {
		cfg.OnResult(idx, result)
	}
	if st.Degraded {
		return ms, outcomeDegraded, nil
	}
	return ms, outcomeSuccess, nil
}

// classify maps one failed exchange to an outcome, counting shed and
// draining answers as it goes. fatal4xx marks client-error codes
// terminal — true on the submit path, where a 400 means the trace
// entry itself is malformed and no retry can fix it; false on polls,
// where a 404 just means the replica restarted and lost the job.
func (cfg *PlayConfig) classify(err error, fatal4xx bool) int {
	var he *httpError
	if !errors.As(err, &he) {
		// Transport-level: dial refused, chaos drop, severed read.
		return outcomeRetry
	}
	switch he.code {
	case http.StatusTooManyRequests:
		cfg.stats.shed.Add(1)
		return outcomeRetry
	case http.StatusServiceUnavailable:
		cfg.stats.draining.Add(1)
		return outcomeRetry
	}
	if fatal4xx && he.code >= 400 && he.code < 500 {
		return outcomeFailed
	}
	return outcomeRetry
}

// httpError is a non-2xx daemon answer; the retry loop dispatches on
// its code (429 shed, 503 draining, 5xx transient).
type httpError struct {
	op   string
	code int
	body string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.code, e.body)
}

func (cfg *PlayConfig) postJSON(url string, body []byte) (service.JobStatus, error) {
	resp, err := cfg.Client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.JobStatus{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return service.JobStatus{}, &httpError{op: "submit", code: resp.StatusCode, body: firstLine(data)}
	}
	st, err := decodeStatusBody(data)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("submit: bad status body: %w", err)
	}
	return st, nil
}

// resultMarker is the splice point additivityd uses for inline result
// payloads: the "result" member is always the last of the status
// object, appended verbatim after the encoded envelope.
var resultMarker = []byte(`,"result":`)

// decodeStatusBody decodes a status response. When an inline result is
// present, the envelope (a few hundred bytes) is decoded alone and the
// payload — the bulk of the body — is sliced off without a JSON scan;
// any mismatch falls back to a full decode, so the fast path is purely
// an optimisation.
func decodeStatusBody(data []byte) (service.JobStatus, error) {
	if i := bytes.Index(data, resultMarker); i >= 0 {
		if end := bytes.LastIndexByte(data, '}'); end > i {
			env := make([]byte, 0, i+1)
			env = append(env, data[:i]...)
			env = append(env, '}')
			var st service.JobStatus
			if err := json.Unmarshal(env, &st); err == nil && st.State == service.StateDone {
				st.Result = data[i+len(resultMarker) : end]
				return st, nil
			}
		}
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return service.JobStatus{}, err
	}
	return st, nil
}

func (cfg *PlayConfig) getStatus(base, id string) (service.JobStatus, error) {
	url := base + "/v1/jobs/" + id + cfg.waitQuery
	resp, err := cfg.Client.Get(url)
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.JobStatus{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, &httpError{op: "poll " + id, code: resp.StatusCode, body: firstLine(data)}
	}
	st, err := decodeStatusBody(data)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("poll %s: bad status body: %w", id, err)
	}
	return st, nil
}

func (cfg *PlayConfig) getResult(base, id string) ([]byte, error) {
	resp, err := cfg.Client.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &httpError{op: "result " + id, code: resp.StatusCode, body: firstLine(data)}
	}
	return data, nil
}

func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	const max = 200
	if len(data) > max {
		data = data[:max]
	}
	return string(data)
}
