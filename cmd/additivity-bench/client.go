package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"additivity/internal/service"
)

// requestTimeout bounds one HTTP exchange; the daemon's long-poll window
// (?wait=30s) fits inside it.
const requestTimeout = 60 * time.Second

// client is one load-generating connection. Its transport holds at most
// one connection, so a workload never opens more than one per client.
// Requests are never retried: a refusal is a failure.
type client struct {
	http *http.Client
	tr   *tracer // nil: untraced
}

func newClient(tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: t, Timeout: requestTimeout}, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// outcome classifies one request.
type outcome int

const (
	succeeded    outcome = iota
	failedJob            // transport error, unexpected status, or a failed job
	abortedJob           // the job settled as aborted
	refused              // 429 overloaded or 503 draining
	wrongPayload         // the payload is malformed or differs from an earlier copy
)

// failures counts every way a request can miss.
type failures struct {
	Failed  int `json:"failed"`
	Aborted int `json:"aborted"`
	Refused int `json:"refused"`
	Wrong   int `json:"wrong_payload"`
	// Gate counts sampled identities whose served payload differs from a
	// fresh in-process execution.
	Gate int `json:"gate_mismatch"`
}

func (f failures) total() int { return f.Failed + f.Aborted + f.Refused + f.Wrong + f.Gate }

func (f *failures) add(o outcome) {
	switch o {
	case failedJob:
		f.Failed++
	case abortedJob:
		f.Aborted++
	case refused:
		f.Refused++
	case wrongPayload:
		f.Wrong++
	}
}

func (f *failures) merge(g failures) {
	f.Failed += g.Failed
	f.Aborted += g.Aborted
	f.Refused += g.Refused
	f.Wrong += g.Wrong
	f.Gate += g.Gate
}

// spanHeader carries the client span id to the traced handler wrapper,
// which makes it the parent of the server-side span.
const spanHeader = "X-Bench-Span"

// exchange performs one HTTP round trip and returns the body and status.
func (c *client) exchange(ctx context.Context, method, url string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id uint64
	var start time.Time
	if c.tr != nil {
		id = c.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		start = time.Now()
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.record(id, 0, "client.request", start, time.Now())
	}
	return data, resp.StatusCode, err
}

// resultKey is where additivityd splices an inline result: always the
// last member of the status object.
var resultKey = []byte(`,"result":`)

// decodeStatus decodes a status response. An inline result is sliced off
// without scanning it, so a large payload costs the client nothing; any
// other shape falls back to a full decode.
func decodeStatus(data []byte) (service.JobStatus, error) {
	if i := bytes.Index(data, resultKey); i >= 0 {
		if end := bytes.LastIndexByte(data, '}'); end > i {
			var st service.JobStatus
			env := append(append(make([]byte, 0, i+1), data[:i]...), '}')
			if json.Unmarshal(env, &st) == nil && st.State == service.StateDone {
				st.Result = data[i+len(resultKey) : end]
				return st, nil
			}
		}
	}
	var st service.JobStatus
	err := json.Unmarshal(data, &st)
	return st, err
}

// submit posts a job. With wait set, the daemon holds the response until
// the job settles and inlines its result: one round trip per job.
func (c *client) submit(ctx context.Context, base string, body []byte, wait bool) (service.JobStatus, outcome, error) {
	url := base + "/v1/jobs"
	if wait {
		url += "?wait=30s&result=1"
	}
	data, code, err := c.exchange(ctx, http.MethodPost, url, body)
	return statusOf(data, code, http.StatusAccepted, err)
}

// settle polls a job until it is terminal and returns its payload.
func (c *client) settle(ctx context.Context, base string, st service.JobStatus) ([]byte, outcome, error) {
	for !st.State.Terminal() {
		data, code, err := c.exchange(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"?wait=30s&result=1", nil)
		var o outcome
		if st, o, err = statusOf(data, code, http.StatusOK, err); err != nil {
			return nil, o, err
		}
	}
	switch st.State {
	case service.StateDone:
		if len(st.Result) == 0 {
			return nil, wrongPayload, fmt.Errorf("job %s done without an inline result", st.ID)
		}
		return st.Result, succeeded, nil
	case service.StateAborted:
		return nil, abortedJob, fmt.Errorf("job %s aborted: %s", st.ID, st.Error)
	default:
		return nil, failedJob, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
}

// job runs one request to completion.
func (c *client) job(ctx context.Context, base string, body []byte) ([]byte, outcome, error) {
	st, o, err := c.submit(ctx, base, body, true)
	if err != nil {
		return nil, o, err
	}
	return c.settle(ctx, base, st)
}

func statusOf(data []byte, code, want int, err error) (service.JobStatus, outcome, error) {
	if err != nil {
		return service.JobStatus{}, failedJob, err
	}
	switch code {
	case want:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return service.JobStatus{}, refused, fmt.Errorf("HTTP %d: %s", code, firstLine(data))
	default:
		return service.JobStatus{}, failedJob, fmt.Errorf("HTTP %d: %s", code, firstLine(data))
	}
	st, err := decodeStatus(data)
	if err != nil {
		return service.JobStatus{}, failedJob, fmt.Errorf("bad status body: %w", err)
	}
	return st, succeeded, nil
}

func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(data)
}

// payloadBook holds the first payload served for each identity and
// checks every later copy against it byte for byte.
type payloadBook struct {
	mu    sync.Mutex
	first [][]byte
}

func newPayloadBook(ids int) *payloadBook { return &payloadBook{first: make([][]byte, ids)} }

// payloadPrefix opens every result payload: each kind's result struct
// leads with its platform, and every workload targets haswell.
var payloadPrefix = []byte(`{"platform":"haswell"`)

// check records or compares one served payload.
func (b *payloadBook) check(id int32, p []byte) bool {
	b.mu.Lock()
	prev := b.first[id]
	b.mu.Unlock()
	if prev != nil {
		return bytes.Equal(prev, p)
	}
	if !bytes.HasPrefix(p, payloadPrefix) || !json.Valid(p) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first[id] == nil {
		b.first[id] = p
		return true
	}
	return bytes.Equal(b.first[id], p)
}

// bgJob is a background submission awaiting verification.
type bgJob struct {
	req request
	st  service.JobStatus
}

// phase is what one pass over a request sequence observed.
type phase struct {
	attempted int
	fails     failures
	// latencies of successful foreground requests, ms, and the window
	// each completed in.
	latencies []float64
	window    []int
	// lags are the load generator's own delays, ms: how late the open
	// loop dispatched each request, a closed-loop client's gap between
	// a response and its next send, or a lockstep copy's delay after the
	// previous step finished.
	lags    []float64
	elapsed time.Duration
	bg      []bgJob
	errs    []string
}

func (ph *phase) fail(o outcome, err error) {
	ph.fails.add(o)
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

func (ph *phase) merge(o *phase) {
	ph.attempted += o.attempted
	ph.fails.merge(o.fails)
	ph.latencies = append(ph.latencies, o.latencies...)
	ph.window = append(ph.window, o.window...)
	ph.lags = append(ph.lags, o.lags...)
	ph.bg = append(ph.bg, o.bg...)
	for _, e := range o.errs {
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, e)
		}
	}
}

// sender sends one workload's requests to a fleet.
type sender struct {
	// clients are the load connections: one for a closed loop, two for
	// lockstep and open loops.
	clients []*client
	urls    []string
	p       *plan
	book    *payloadBook
}

// one sends a foreground request on client w and records it in its
// window; due is when latency starts counting.
func (d *sender) one(ctx context.Context, w int, r request, due time.Time, ph *phase, cuts *windower) {
	ph.attempted++
	payload, o, err := d.clients[w].job(ctx, d.urls[r.replica], d.p.bodies[r.id])
	lat := time.Since(due)
	win := cuts.complete()
	if err == nil && !d.book.check(r.id, payload) {
		o, err = wrongPayload, fmt.Errorf("identity %d: payload differs from its first copy or is malformed", r.id)
	}
	if err != nil {
		ph.fail(o, err)
		return
	}
	ph.latencies = append(ph.latencies, msOf(lat))
	ph.window = append(ph.window, win)
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// run sends reqs in the given mode and returns the merged observations.
// cuts, when not nil, windows the foreground completions.
func (d *sender) run(ctx context.Context, m mode, reqs []request, cuts *windower) *phase {
	parts := make([]phase, len(d.clients))
	start := time.Now()
	var wg sync.WaitGroup
	switch m {
	case closedLoop:
		ph := &parts[0]
		var last time.Time // when the previous response arrived
		for i := 0; i < len(reqs) && ctx.Err() == nil; i++ {
			now := time.Now()
			if i > 0 {
				ph.lags = append(ph.lags, msOf(now.Sub(last)))
			}
			d.one(ctx, 0, reqs[i], now, ph, cuts)
			last = time.Now()
		}
	case lockstep:
		var ready time.Time // when the previous step finished
		for k := 0; k+1 < len(reqs) && ctx.Err() == nil; k += 2 {
			for w := range parts {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ph := &parts[w]
					now := time.Now()
					if !ready.IsZero() {
						ph.lags = append(ph.lags, msOf(now.Sub(ready)))
					}
					d.one(ctx, w, reqs[k+w], now, ph, cuts)
				}(w)
			}
			wg.Wait()
			ready = time.Now()
		}
	case openLoop:
		d.open(ctx, reqs, start, parts, cuts)
	}
	ph := &parts[0]
	for i := range parts[1:] {
		ph.merge(&parts[1+i])
	}
	ph.elapsed = time.Since(start)
	return ph
}

// open dispatches reqs on their schedule to whichever client is free.
func (d *sender) open(ctx context.Context, reqs []request, start time.Time, parts []phase, cuts *windower) {
	// Sized to every send, so the dispatcher never blocks on a busy
	// client: a stalled daemon shows as latency, not as generator lag.
	queue := make(chan int, len(reqs))
	var lags []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		for i, r := range reqs {
			due := start.Add(r.at)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
					return
				}
			}
			lags = append(lags, msOf(time.Since(due)))
			queue <- i
		}
	}()
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ph := &parts[w]
			for i := range queue {
				r := reqs[i]
				if !r.bg {
					d.one(ctx, w, r, start.Add(r.at), ph, cuts)
					continue
				}
				ph.attempted++
				st, o, err := d.clients[w].submit(ctx, d.urls[r.replica], d.p.bodies[r.id], false)
				if err != nil {
					ph.fail(o, err)
					continue
				}
				ph.bg = append(ph.bg, bgJob{req: r, st: st})
			}
		}(w)
	}
	wg.Wait()
	parts[0].lags = append(parts[0].lags, lags...)
}

// collect waits for every background job and verifies its payload.
func (d *sender) collect(ctx context.Context, ph *phase) {
	for _, b := range ph.bg {
		payload, o, err := d.clients[0].settle(ctx, d.urls[b.req.replica], b.st)
		if err == nil && !d.book.check(b.req.id, payload) {
			o, err = wrongPayload, errors.New("background check payload malformed")
		}
		if err != nil {
			ph.fail(o, err)
		}
	}
}
