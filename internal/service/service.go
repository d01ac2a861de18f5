package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"additivity/internal/core"
	"additivity/internal/memo"
)

// JobState is a job's lifecycle state. Transitions are monotone:
// queued → running → one of done/failed/aborted; a queued job aborted
// before it starts goes straight to aborted.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	StateAborted JobState = "aborted"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateAborted
}

// slot is the state's index in Server.inState.
func (s JobState) slot() int {
	switch s {
	case StateQueued:
		return 0
	case StateRunning:
		return 1
	case StateDone:
		return 2
	case StateFailed:
		return 3
	}
	return 4
}

// Options configures a Server.
type Options struct {
	// Cache, when non-nil, backs every job with the shared
	// content-addressed measurement cache — the layer that makes
	// duplicate jobs cheap and concurrent duplicates single-flight.
	Cache *memo.Cache
	// MaxConcurrentJobs bounds how many jobs run at once (queued jobs
	// wait). Zero or negative: GOMAXPROCS.
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds the accept queue: jobs admitted but not yet
	// holding a pool slot. Submissions past the bound are shed with 429
	// "overloaded" instead of growing an unbounded backlog (the fast
	// path — warm hits and analytic predictions — is never shed: it
	// settles synchronously without queueing). Zero means
	// DefaultMaxQueuedJobs; negative means unbounded.
	MaxQueuedJobs int
	// DefaultJobTimeout, when positive, bounds each pooled job's total
	// time (queue wait included) with a context deadline. A per-request
	// ?timeout= overrides it. Expired jobs settle as aborted with
	// "job deadline exceeded".
	DefaultJobTimeout time.Duration
}

// DefaultMaxQueuedJobs bounds the accept queue when
// Options.MaxQueuedJobs is zero.
const DefaultMaxQueuedJobs = 256

// maxWait caps long-poll durations on the poll and submit endpoints.
const maxWait = 30 * time.Second

// Progress is a job's gather fan-out position.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// job is one submitted unit of work.
type job struct {
	id   string
	kind JobKind
	req  JobRequest

	cancel context.CancelFunc
	doneCh chan struct{}

	mu       sync.Mutex
	state    JobState
	errMsg   string
	progress Progress
	result   []byte
	degraded bool
}

// outcome returns the job's state, error message and result payload.
func (j *job) outcome() (JobState, string, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.result
}

func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = Progress{Done: done, Total: total}
}

// JobStatus is the poll-endpoint view of a job.
type JobStatus struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// Degraded marks a done job whose result rests on incomplete data
	// (dropped samples or quarantined events under fault injection).
	Degraded bool      `json:"degraded,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	// Result carries a done job's canonical payload inline when the
	// submit or poll request asked for it with ?result=1 — jobs that
	// settle within the request (warm cache hits, analytic predictions,
	// long-poll completions) then need no second result round-trip.
	Result json.RawMessage `json:"result,omitempty"`
}

// wantResult reports whether the request opted into an inline result
// payload with ?result=1 (any strconv.ParseBool true form).
func wantResult(r *http.Request) bool {
	v, err := strconv.ParseBool(r.URL.Query().Get("result"))
	return err == nil && v
}

// attachResult inlines a done job's payload into its status.
func (s *Server) attachResult(st *JobStatus) {
	if st.State != StateDone {
		return
	}
	if payload, err := s.JobResult(st.ID); err == nil {
		st.Result = payload
	}
}

// writeStatus writes a status response. An inline result is spliced
// into the JSON verbatim: the payload is already canonical JSON, and
// pushing it back through the generic encoder would re-compact every
// byte — measurably dominating the single-round-trip fast path on
// large check results.
func writeStatus(w http.ResponseWriter, status int, st JobStatus) {
	if st.Result == nil {
		writeJSON(w, status, st)
		return
	}
	payload := st.Result
	st.Result = nil
	frame, err := json.Marshal(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding_failed", err.Error())
		return
	}
	const key = `,"result":`
	buf := make([]byte, 0, len(frame)+len(key)+len(payload)+2)
	buf = append(buf, frame[:len(frame)-1]...)
	buf = append(buf, key...)
	buf = append(buf, payload...)
	buf = append(buf, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	// An explicit length keeps the response out of chunked transfer
	// encoding — chunk framing costs both sides of the fast path real
	// CPU on bodies this size.
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	_, _ = w.Write(buf)
}

// FaultStats aggregates the resilience accounting of every completed
// job: retry/recovery totals from the fault-injection layer and how
// many jobs finished on degraded data.
type FaultStats struct {
	Retries      int64  `json:"retries"`
	Recovered    int64  `json:"recovered"`
	DegradedJobs uint64 `json:"degraded_jobs"`
}

// JobCounters counts jobs by lifecycle outcome. Submitted, Done,
// Failed and Aborted are monotone; Queued and Running are gauges. Once
// no submission is in flight, Submitted equals the sum of the other
// five.
type JobCounters struct {
	Submitted uint64 `json:"submitted"`
	Queued    uint64 `json:"queued"`
	Running   uint64 `json:"running"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Aborted   uint64 `json:"aborted"`
}

// Stats is the /statsz payload. Every counter in it is monotone over
// the server's lifetime except the Queued/Running/QueueDepth gauges
// and the Draining/Degraded/Breaker states.
type Stats struct {
	Jobs         JobCounters         `json:"jobs"`
	HTTPRequests uint64              `json:"http_requests"`
	Cache        *memo.StatsSnapshot `json:"cache,omitempty"`
	Faults       FaultStats          `json:"faults"`
	Draining     bool                `json:"draining"`
	// Shed counts submissions refused with 429 because the accept queue
	// was full; DeadlineExceeded counts jobs aborted by their deadline.
	Shed             uint64 `json:"shed"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	// QueueDepth/QueueLimit expose the admission gauge (-1 limit means
	// unbounded); QueueDepth is the same count as Jobs.Queued. Breaker
	// is the measurement cache's disk breaker state; Degraded mirrors
	// /healthz.
	QueueDepth int    `json:"queue_depth"`
	QueueLimit int    `json:"queue_limit"`
	Breaker    string `json:"breaker,omitempty"`
	Degraded   bool   `json:"degraded"`
}

// Server is the additivityd daemon core: an http.Handler exposing the
// job API over a bounded job-execution pool. Create with NewServer.
type Server struct {
	opts Options
	mux  *http.ServeMux
	sem  chan struct{}
	// queueLimit is the resolved accept-queue bound (-1: unbounded).
	queueLimit int
	// inState counts jobs by state, indexed by JobState.slot. A job
	// enters its slot at creation and changes slot only through
	// setState. The queued slot is also the accept queue: a pooled
	// submission reserves it before its job exists.
	inState [5]atomic.Int64

	mu    sync.Mutex
	jobs  map[string]*job
	order []string

	jobWG    sync.WaitGroup
	draining atomic.Bool

	nextID           atomic.Uint64
	httpRequests     atomic.Uint64
	jobsSubmitted    atomic.Uint64
	jobsShed         atomic.Uint64
	deadlineExceeded atomic.Uint64
	faultRetries     atomic.Int64
	faultRecov       atomic.Int64
	degradedJobs     atomic.Uint64
}

// NewServer returns a daemon core serving the job API:
//
//	GET    /healthz              liveness probe
//	GET    /statsz               cache, job and fault counters
//	POST   /v1/jobs              submit a job (JobRequest body;
//	                             optional ?wait=2s and ?result=1)
//	GET    /v1/jobs              list jobs in submission order
//	GET    /v1/jobs/{id}         poll one job (optional ?wait=2s
//	                             and ?result=1)
//	GET    /v1/jobs/{id}/result  fetch a done job's payload
//	DELETE /v1/jobs/{id}         abort a queued or running job
func NewServer(opts Options) *Server {
	n := opts.MaxConcurrentJobs
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	limit := opts.MaxQueuedJobs
	switch {
	case limit == 0:
		limit = DefaultMaxQueuedJobs
	case limit < 0:
		limit = -1
	}
	s := &Server{
		opts:       opts,
		sem:        make(chan struct{}, n),
		queueLimit: limit,
		jobs:       make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handlePoll)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleAbort)
	mux.HandleFunc("GET /v1/peer/blob/{digest}", s.handlePeerBlob)
	s.mux = mux
	return s
}

// handlePeerBlob serves one cached entry to a sibling replica in the
// entry wire framing (`memo1 <sha256> <len>\n<payload>` — see
// memo.EncodeEntry), with an explicit Content-Length. It answers
// strictly from what this replica already has stored (LRU or disk):
// never a compute, never a fetch from its own peers — so two replicas
// missing the same digest can never recurse into each other — and
// never a request-counter movement, so serving peers doesn't skew this
// replica's hit/miss accounting. The fetching side re-validates the
// framing and payload checksum on receipt.
func (s *Server) handlePeerBlob(w http.ResponseWriter, r *http.Request) {
	key, err := memo.KeyFromHex(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_digest", err.Error())
		return
	}
	payload, ok := s.opts.Cache.LookupStored(key)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_blob",
			"no stored entry for digest "+key.Hex())
		return
	}
	blob := memo.EncodeEntry(payload)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// errorBody is the structured error envelope every non-2xx response
// carries.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = message
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Degraded reports whether the server is up but impaired: the
// measurement cache's disk breaker is open (jobs compute without
// persistence or fleet coordination) or the accept queue is saturated
// (new submissions are being shed). The reason names the first
// impairment found.
func (s *Server) Degraded() (bool, string) {
	if s.opts.Cache != nil && s.opts.Cache.BreakerState() == memo.BreakerOpen {
		return true, "cache disk breaker open"
	}
	if s.queueLimit >= 0 && s.inState[StateQueued.slot()].Load() >= int64(s.queueLimit) {
		return true, "job queue saturated"
	}
	return false, ""
}

// handleHealthz answers "ok" when healthy and "degraded: <reason>"
// when up but impaired — still 200 in both cases: degraded is a
// quality signal for operators and load balancers, not liveness
// failure (the server is serving, just without its full machinery).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if degraded, reason := s.Degraded(); degraded {
		_, _ = w.Write([]byte("degraded: " + reason + "\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the server's counters (the /statsz payload).
func (s *Server) Stats() Stats {
	var st Stats
	count := func(state JobState) uint64 { return uint64(s.inState[state.slot()].Load()) }
	st.Jobs = JobCounters{
		Submitted: s.jobsSubmitted.Load(),
		Queued:    count(StateQueued),
		Running:   count(StateRunning),
		Done:      count(StateDone),
		Failed:    count(StateFailed),
		Aborted:   count(StateAborted),
	}
	st.HTTPRequests = s.httpRequests.Load()
	if s.opts.Cache != nil {
		cs := s.opts.Cache.Stats()
		st.Cache = &cs
	}
	st.Faults = FaultStats{
		Retries:      s.faultRetries.Load(),
		Recovered:    s.faultRecov.Load(),
		DegradedJobs: s.degradedJobs.Load(),
	}
	st.Draining = s.draining.Load()
	st.Shed = s.jobsShed.Load()
	st.DeadlineExceeded = s.deadlineExceeded.Load()
	st.QueueDepth = int(st.Jobs.Queued)
	st.QueueLimit = s.queueLimit
	if s.opts.Cache != nil {
		st.Breaker = string(s.opts.Cache.BreakerState())
	}
	st.Degraded, _ = s.Degraded()
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", errDraining)
		return
	}
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed_json",
			"request body is not a valid job request: "+err.Error())
		return
	}
	if err := req.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	var wait time.Duration
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "invalid_request",
				"wait must be a non-negative duration, got "+waitStr)
			return
		}
		wait = d
	}
	timeout := s.opts.DefaultJobTimeout
	if toStr := r.URL.Query().Get("timeout"); toStr != "" {
		d, err := time.ParseDuration(toStr)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "invalid_request",
				"timeout must be a positive duration, got "+toStr)
			return
		}
		timeout = d
	}
	st, fast := s.submitFast(r.Context(), req)
	if !fast {
		// Admission control guards the pooled path only: the fast path
		// settles synchronously and adds no backlog, so shedding it
		// would refuse work the server can answer for free.
		if !s.reserveQueueSlot() {
			s.jobsShed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("accept queue is full (%d jobs queued); retry later", s.queueLimit))
			return
		}
		pooled, ok := s.startPooled(req, timeout)
		if !ok {
			s.inState[StateQueued.slot()].Add(-1)
			writeError(w, http.StatusServiceUnavailable, "draining", errDraining)
			return
		}
		st = pooled
	}
	if wait > 0 && !st.State.Terminal() {
		if wait > maxWait {
			wait = maxWait
		}
		if j := s.lookup(st.ID); j != nil {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			select {
			case <-j.doneCh:
			case <-timer.C:
			case <-r.Context().Done():
			}
			st = s.status(j)
		}
	}
	if wantResult(r) {
		s.attachResult(&st)
	}
	writeStatus(w, http.StatusAccepted, st)
}

// keyScratch is the warm fast path's pooled key-building state: one
// KeyBuilder plus a JSON encoder permanently bound to a reused buffer.
// Encoding through the bound encoder (with a pointer receiver, so the
// request is not boxed) re-renders the canonical JSON without
// allocating once the buffer has grown to fit.
type keyScratch struct {
	kb  *memo.KeyBuilder
	buf bytes.Buffer
	enc *json.Encoder
}

var keyPool = sync.Pool{New: func() any {
	ks := &keyScratch{kb: memo.NewKeyBuilder(jobKeySchema)}
	ks.enc = json.NewEncoder(&ks.buf)
	return ks
}}

// fastJobKey digests an already-normalised request on pooled scratch.
// Encode emits exactly json.Marshal's bytes plus one trailing newline,
// which is trimmed before framing, so the digest is bit-identical to
// JobKey's (TestFastJobKeyMatchesJobKey holds the equivalence).
func fastJobKey(ks *keyScratch, req *JobRequest) (memo.Key, error) {
	ks.buf.Reset()
	if err := ks.enc.Encode(req); err != nil {
		return memo.Key{}, err
	}
	b := ks.buf.Bytes()
	ks.kb.Reset(jobKeySchema)
	ks.kb.FieldBytes("request", b[:len(b)-1])
	return ks.kb.Key(), nil
}

// lookupWarm peeks the memory tier of the job cache for an
// already-normalised request. In steady state a hit costs zero heap
// allocations: the key is built on pooled scratch and the cached
// payload is returned by reference.
func (s *Server) lookupWarm(req *JobRequest) ([]byte, bool) {
	if s.opts.Cache == nil {
		return nil, false
	}
	ks := keyPool.Get().(*keyScratch)
	key, err := fastJobKey(ks, req)
	keyPool.Put(ks)
	if err != nil {
		return nil, false
	}
	return s.opts.Cache.Lookup(key)
}

// closedCh is the shared pre-closed done channel of jobs born terminal.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func noopCancel() {}

// submitFast settles a job synchronously when no engine work is
// needed: a warm job-cache hit is served straight from memory, and an
// analytic-tier predict is answered in closed form from the catalog
// parameters. The job still gets an id, appears in the job list and
// serves its result like any pooled job — it is simply born terminal,
// so the submit response is already final and clients can skip the
// poll loop entirely.
func (s *Server) submitFast(ctx context.Context, req JobRequest) (JobStatus, bool) {
	payload, hit := s.lookupWarm(&req)
	var jobErr error
	if !hit {
		if req.Kind != KindPredict || req.Params.Tier != "analytic" {
			return JobStatus{}, false
		}
		// Analytic predictions are pure catalog arithmetic; run them
		// inline through the cache so duplicates share one payload. The
		// caller's ctx scopes the inline work: a client that disconnects
		// mid-submit stops paying for its own prediction.
		payload, _, jobErr = executeCached(ctx, s.opts.Cache, req, hooks{})
	}
	if jobErr != nil {
		return s.bornTerminal(req, StateFailed, nil, jobErr.Error()), true
	}
	return s.bornTerminal(req, StateDone, payload, ""), true
}

// bornTerminal registers a job born terminal: it never queues, so it shares
// the pre-closed done channel and cancels nothing.
func (s *Server) bornTerminal(req JobRequest, state JobState, payload []byte, errMsg string) JobStatus {
	j := &job{
		id: s.newID(), kind: req.Kind, req: req,
		cancel: noopCancel, doneCh: closedCh,
		state: state, result: payload, errMsg: errMsg,
	}
	s.inState[state.slot()].Add(1)
	s.register(j)
	s.jobsSubmitted.Add(1)
	return s.status(j)
}

func (s *Server) newID() string {
	return "job-" + strconv.FormatUint(s.nextID.Add(1), 10)
}

// register adds a job to the registry.
func (s *Server) register(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// admit registers a pooled job and counts it in flight, unless the
// server is draining. StartDraining takes the same lock, so every
// jobWG.Add happens before the Wait in Drain.
func (s *Server) admit(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.jobWG.Add(1)
	return true
}

// Submit enqueues a normalised job and returns its initial status. The
// request must already be valid (HTTP submissions are normalised by the
// handler; direct callers should call Normalize first). Jobs the server
// can settle without engine work — warm job-cache hits and analytic
// predictions — return an already-terminal status instead of queueing.
// Direct submission is never shed: admission control applies to the
// HTTP surface, where a caller can be told to retry. Once the server
// is draining, a job that needs the pool is born aborted.
func (s *Server) Submit(req JobRequest) JobStatus {
	// Direct in-process submission has no inbound request whose
	// cancellation could scope the fast path's inline work.
	//lint:ignore serving direct in-process submission has no request context to thread; the fast path is bounded catalog arithmetic
	if st, ok := s.submitFast(context.Background(), req); ok {
		return st
	}
	s.inState[StateQueued.slot()].Add(1)
	if st, ok := s.startPooled(req, s.opts.DefaultJobTimeout); ok {
		return st
	}
	s.inState[StateQueued.slot()].Add(-1)
	return s.bornTerminal(req, StateAborted, nil, errDraining)
}

// errDraining is the error of a submission refused by a draining
// server.
const errDraining = "server is draining: not accepting new jobs"

// reserveQueueSlot counts one more queued job, failing when the accept
// queue is at its bound. The CAS loop keeps the bound exact under
// concurrent submissions.
func (s *Server) reserveQueueSlot() bool {
	queued := &s.inState[StateQueued.slot()]
	if s.queueLimit < 0 {
		queued.Add(1)
		return true
	}
	for {
		d := queued.Load()
		if d >= int64(s.queueLimit) {
			return false
		}
		if queued.CompareAndSwap(d, d+1) {
			return true
		}
	}
}

// startPooled creates a pooled job whose queued count is already
// reserved, applying the given deadline (0: none) to its whole
// lifetime — queue wait included, so a saturated pool cannot park a
// deadlined job forever. It reports false, creating nothing, once the
// server is draining; the caller still owns the reserved count.
func (s *Server) startPooled(req JobRequest, timeout time.Duration) (JobStatus, bool) {
	// A pooled job deliberately outlives the submitting request: the
	// client may disconnect and poll for the result later, so the job
	// context detaches from the request and is bounded by the job
	// deadline instead.
	//lint:ignore serving pooled jobs are detached workers by design; their lifetime is bounded by the job deadline, not the submitting request
	base := context.Background()
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	j := &job{
		id: s.newID(), kind: req.Kind, req: req,
		cancel: cancel, doneCh: make(chan struct{}),
		state: StateQueued,
	}
	if !s.admit(j) {
		cancel()
		return JobStatus{}, false
	}
	s.jobsSubmitted.Add(1)
	go s.run(ctx, j)
	return JobStatus{ID: j.id, Kind: j.kind, State: StateQueued}, true
}

// run executes one job on the bounded pool and settles its terminal
// state.
func (s *Server) run(ctx context.Context, j *job) {
	defer s.jobWG.Done()
	defer close(j.doneCh)
	defer j.cancel() // release the deadline timer once settled
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.finish(j, nil, nil, ctx.Err())
		return
	}
	if ctx.Err() != nil {
		s.finish(j, nil, nil, ctx.Err())
		return
	}
	s.markRunning(j)
	payload, report, err := executeCached(ctx, s.opts.Cache, j.req, hooks{progress: j.setProgress})
	s.finish(j, payload, report, err)
}

func (s *Server) markRunning(j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s.setState(j, StateRunning)
}

// finish folds a job's resilience accounting into the server counters
// and settles its terminal state.
func (s *Server) finish(j *job, payload []byte, report *core.CheckReport, err error) {
	degraded := false
	if report != nil {
		s.faultRetries.Add(report.Retries)
		s.faultRecov.Add(report.Recovered)
		if report.Degraded() {
			s.degradedJobs.Add(1)
			degraded = true
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.degraded = degraded
	switch {
	case err == nil:
		j.result = payload
		s.setState(j, StateDone)
	case errors.Is(err, context.DeadlineExceeded):
		j.errMsg = "job deadline exceeded"
		s.setState(j, StateAborted)
		s.deadlineExceeded.Add(1)
	case errors.Is(err, context.Canceled):
		j.errMsg = "job aborted"
		s.setState(j, StateAborted)
	default:
		j.errMsg = err.Error()
		s.setState(j, StateFailed)
	}
}

// setState moves j to a new state and its count from the old state's
// slot to the new one's. Every state change after creation goes
// through here, so /statsz counts exactly the states pollers see. The
// caller holds j.mu; the counts are atomics, so that blocks nobody.
func (s *Server) setState(j *job, to JobState) {
	s.inState[j.state.slot()].Add(-1)
	j.state = to
	s.inState[to.slot()].Add(1)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) status(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Kind: j.kind, State: j.state, Error: j.errMsg, Degraded: j.degraded}
	if j.progress.Total > 0 {
		p := j.progress
		st.Progress = &p
	}
	return st
}

// jobIDs copies the registry's ids in submission order.
func (s *Server) jobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	ids := s.jobIDs()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j := s.lookup(id); j != nil {
			out = append(out, s.status(j))
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: out})
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown_job",
			"no job "+r.PathValue("id"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "invalid_request",
				"wait must be a non-negative duration, got "+waitStr)
			return
		}
		if d > maxWait {
			d = maxWait
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-j.doneCh:
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	st := s.status(j)
	if wantResult(r) {
		s.attachResult(&st)
	}
	writeStatus(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown_job",
			"no job "+r.PathValue("id"))
		return
	}
	state, errMsg, result := j.outcome()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(result)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case StateFailed:
		writeError(w, http.StatusConflict, "job_failed", errMsg)
	case StateAborted:
		writeError(w, http.StatusConflict, "job_aborted", "job was aborted")
	default:
		writeError(w, http.StatusConflict, "not_finished",
			fmt.Sprintf("job is %s; poll until done", state))
	}
}

func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown_job",
			"no job "+r.PathValue("id"))
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, s.status(j))
}

// Abort cancels a job by id (the DELETE endpoint's direct form).
// Aborting a terminal job is a no-op; the return reports whether the
// job exists.
func (s *Server) Abort(id string) bool {
	j := s.lookup(id)
	if j == nil {
		return false
	}
	j.cancel()
	return true
}

// StartDraining flips the server into drain mode: new submissions are
// refused with 503 while queued and running jobs continue to
// completion. Once it returns, no job can join the set Drain waits on.
func (s *Server) StartDraining() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining.Store(true)
}

// Drain blocks until every in-flight job has settled or ctx expires.
// Call StartDraining first so the in-flight set cannot grow.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// AbortAll cancels every non-terminal job — the forced-shutdown path
// when a drain deadline expires.
func (s *Server) AbortAll() {
	for _, id := range s.jobIDs() {
		if j := s.lookup(id); j != nil {
			j.cancel()
		}
	}
}

// WaitJob blocks until the job settles or ctx expires, returning its
// final status. Used by in-process callers (tests, the facade).
func (s *Server) WaitJob(ctx context.Context, id string) (JobStatus, error) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, fmt.Errorf("service: no job %s", id)
	}
	select {
	case <-j.doneCh:
		return s.status(j), nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// JobResult returns a done job's canonical payload.
func (s *Server) JobResult(id string) ([]byte, error) {
	j := s.lookup(id)
	if j == nil {
		return nil, fmt.Errorf("service: no job %s", id)
	}
	state, errMsg, result := j.outcome()
	if state != StateDone {
		if errMsg == "" {
			errMsg = string(state)
		}
		return nil, fmt.Errorf("service: job %s is %s: %s", id, state, errMsg)
	}
	return result, nil
}
