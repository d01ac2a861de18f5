package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"additivity/internal/memo"
)

// newTestServer boots a cache-backed daemon core behind httptest.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cache, err := memo.New(memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Cache: cache, MaxConcurrentJobs: 4})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func decodeStatus(t *testing.T, r io.Reader) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return st
}

// decodeErrorBody asserts the response carries the structured error
// envelope and returns its code.
func decodeErrorBody(t *testing.T, data []byte) string {
	t.Helper()
	var body errorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("error response is not the structured envelope: %v\n%s", err, data)
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %s", data)
	}
	return body.Error.Code
}

func submit(t *testing.T, ts *httptest.Server, body string) JobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = HTTP %d, want 202: %s", resp.StatusCode, data)
	}
	return decodeStatus(t, resp.Body)
}

// pollUntilTerminal long-polls the job until it settles.
func pollUntilTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	for i := 0; i < 120; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1s")
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll = HTTP %d", resp.StatusCode)
		}
		if st.State.Terminal() {
			return st
		}
	}
	t.Fatalf("job %s did not settle", id)
	return JobStatus{}
}

func TestSubmitPollResultHappyPath(t *testing.T) {
	_, ts := newTestServer(t)

	st := submit(t, ts, `{"kind":"check","params":{"compounds":2,"reps":2}}`)
	if st.ID == "" || st.Kind != KindCheck || st.State != StateQueued {
		t.Fatalf("submit status = %+v, want queued check with id", st)
	}

	final := pollUntilTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s), want done", final.State, final.Error)
	}
	if final.Progress == nil || final.Progress.Done != final.Progress.Total || final.Progress.Total == 0 {
		t.Errorf("done job progress = %+v, want complete fan-out", final.Progress)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = HTTP %d", resp.StatusCode)
	}
	var res CheckResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("result payload is not a CheckResult: %v", err)
	}
	if res.Platform != "haswell" || len(res.Verdicts) == 0 {
		t.Errorf("result = platform %q with %d verdicts, want haswell with verdicts", res.Platform, len(res.Verdicts))
	}
}

func TestMalformedJSONIsStructured400(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		"{not json",
		`{"kind":"check","bogus_field":1}`,
		`{"kind":"check","params":{"compounds":-1}}`,
		`{"kind":"sideways"}`,
		`{}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q = HTTP %d, want 400", body, resp.StatusCode)
			continue
		}
		code := decodeErrorBody(t, data)
		if code != "malformed_json" && code != "invalid_request" {
			t.Errorf("submit %q error code = %q", body, code)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t)
	for _, url := range []string{
		ts.URL + "/v1/jobs/job-999",
		ts.URL + "/v1/jobs/job-999/result",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = HTTP %d, want 404", url, resp.StatusCode)
			continue
		}
		if code := decodeErrorBody(t, data); code != "unknown_job" {
			t.Errorf("GET %s error code = %q, want unknown_job", url, code)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || decodeErrorBody(t, data) != "unknown_job" {
		t.Errorf("DELETE unknown = HTTP %d %s, want 404 unknown_job", resp.StatusCode, data)
	}
}

func TestAbortMidRunReachesAbortedState(t *testing.T) {
	_, ts := newTestServer(t)

	// A deliberately large fan-out (distinct seed: no cache reuse), so
	// the job is still mid-run when the DELETE lands.
	st := submit(t, ts, `{"kind":"check","params":{"seed":990001,"compounds":300,"reps":5,"workers":1}}`)

	// Wait for the running state so the abort exercises mid-run
	// cancellation, not the queued fast path.
	for i := 0; i < 200; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		cur := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if cur.State == StateRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job settled as %s before the abort could land", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("abort = HTTP %d, want 200", resp.StatusCode)
	}

	final := pollUntilTerminal(t, ts, st.ID)
	if final.State != StateAborted {
		t.Fatalf("state after abort = %s, want aborted", final.State)
	}

	// The result endpoint must report the abort, not a payload.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict || decodeErrorBody(t, data) != "job_aborted" {
		t.Errorf("result after abort = HTTP %d %s, want 409 job_aborted", rresp.StatusCode, data)
	}
}

func TestResultBeforeDoneIs409(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, `{"kind":"check","params":{"seed":880001,"compounds":300,"reps":5}}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || decodeErrorBody(t, data) != "not_finished" {
		t.Errorf("early result = HTTP %d %s, want 409 not_finished", resp.StatusCode, data)
	}
	// Settle the job so the test server shuts down promptly.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if dresp, err := http.DefaultClient.Do(req); err == nil {
		dresp.Body.Close()
	}
	pollUntilTerminal(t, ts, st.ID)
}

func TestListReturnsSubmissionOrder(t *testing.T) {
	_, ts := newTestServer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, ts, fmt.Sprintf(`{"kind":"check","params":{"seed":%d,"compounds":2,"reps":2}}`, 100+i))
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		pollUntilTerminal(t, ts, id)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != len(ids) {
		t.Fatalf("list has %d jobs, want %d", len(list.Jobs), len(ids))
	}
	for i, st := range list.Jobs {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
}

func TestInvalidWaitIs400(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, `{"kind":"check","params":{"compounds":2,"reps":2}}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "?wait=banana")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decodeErrorBody(t, data) != "invalid_request" {
		t.Errorf("wait=banana = HTTP %d %s, want 400 invalid_request", resp.StatusCode, data)
	}
	pollUntilTerminal(t, ts, st.ID)
}

// getStats fetches and decodes /statsz.
func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkJobsAddUp asserts that a quiet server's per-state job counts
// account for every submitted job exactly once.
func checkJobsAddUp(t *testing.T, jc JobCounters) {
	t.Helper()
	if sum := jc.Queued + jc.Running + jc.Done + jc.Failed + jc.Aborted; sum != jc.Submitted {
		t.Errorf("per-state job counts sum to %d, want submitted = %d: %+v", sum, jc.Submitted, jc)
	}
}

// The monotone /statsz counters must never decrease across job
// activity, and must account for the activity that happened.
func TestStatszCountersMonotone(t *testing.T) {
	_, ts := newTestServer(t)

	before := getStats(t, ts)
	if before.Jobs.Submitted != 0 || before.Jobs.Done != 0 {
		t.Fatalf("fresh server stats = %+v, want zero job counters", before.Jobs)
	}
	if before.Draining {
		t.Fatal("fresh server reports draining")
	}

	prev := before
	for i := 0; i < 3; i++ {
		// The same request every round: round 1 is a miss, later rounds
		// hit the job-level cache. Counters must stay monotone either way.
		st := submit(t, ts, `{"kind":"check","params":{"seed":5151,"compounds":2,"reps":2}}`)
		if got := pollUntilTerminal(t, ts, st.ID); got.State != StateDone {
			t.Fatalf("round %d: job %s = %s (%s)", i, st.ID, got.State, got.Error)
		}
		cur := getStats(t, ts)
		if cur.Jobs.Submitted < prev.Jobs.Submitted || cur.Jobs.Done < prev.Jobs.Done ||
			cur.Jobs.Failed < prev.Jobs.Failed || cur.Jobs.Aborted < prev.Jobs.Aborted {
			t.Fatalf("round %d: job counters regressed: %+v -> %+v", i, prev.Jobs, cur.Jobs)
		}
		if cur.HTTPRequests <= prev.HTTPRequests {
			t.Fatalf("round %d: http_requests did not advance: %d -> %d", i, prev.HTTPRequests, cur.HTTPRequests)
		}
		if cur.Cache == nil {
			t.Fatal("cache stats missing from a cache-backed server")
		}
		if prev.Cache != nil && cur.Cache.Requests() < prev.Cache.Requests() {
			t.Fatalf("round %d: cache lookups regressed: %d -> %d", i, prev.Cache.Requests(), cur.Cache.Requests())
		}
		prev = cur
	}
	if prev.Jobs.Submitted != 3 || prev.Jobs.Done != 3 {
		t.Errorf("final counters = %+v, want 3 submitted and done", prev.Jobs)
	}
	checkJobsAddUp(t, prev.Jobs)
	if prev.Cache.Hits == 0 {
		t.Errorf("duplicate jobs produced no cache hits: %+v", prev.Cache)
	}
}

// Draining refuses new submissions with 503 and Drain completes once
// in-flight jobs settle.
func TestDrainRefusesAndSettles(t *testing.T) {
	srv, ts := newTestServer(t)

	st := submit(t, ts, `{"kind":"check","params":{"seed":660001,"compounds":2,"reps":2}}`)
	srv.StartDraining()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"check"}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || decodeErrorBody(t, data) != "draining" {
		t.Fatalf("submit while draining = HTTP %d %s, want 503 draining", resp.StatusCode, data)
	}
	if !getStats(t, ts).Draining {
		t.Error("statsz does not report draining")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got, err := srv.WaitJob(ctx, st.ID); err != nil || got.State != StateDone {
		t.Fatalf("in-flight job after drain = %+v, %v; want done", got, err)
	}
}

// A duplicate of an aborted job must not inherit the abort: the retry
// path re-leads the job flight and completes. The abort races the first
// job's own completion, and a first job that settles done before the
// abort lands never reaches the retry path, so that round reruns the
// scenario on a fresh seed.
func TestDuplicateOfAbortedJobStillCompletes(t *testing.T) {
	srv, ts := newTestServer(t)

	const rounds = 5
	for seed := 770001; seed < 770001+rounds; seed++ {
		body := fmt.Sprintf(`{"kind":"check","params":{"seed":%d,"compounds":120,"reps":5}}`, seed)
		first := submit(t, ts, body)
		for i := 0; i < 200; i++ {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
			if err != nil {
				t.Fatal(err)
			}
			cur := decodeStatus(t, resp.Body)
			resp.Body.Close()
			if cur.State == StateRunning {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		second := submit(t, ts, body)
		if !srv.Abort(first.ID) {
			t.Fatal("abort returned false for a live job")
		}
		firstState := pollUntilTerminal(t, ts, first.ID).State
		if got := pollUntilTerminal(t, ts, second.ID); got.State != StateDone {
			t.Fatalf("duplicate job = %s (%s), want done despite the twin's abort", got.State, got.Error)
		}
		switch firstState {
		case StateAborted:
			return
		case StateDone:
			t.Logf("seed %d: first job settled before the abort landed; rerunning", seed)
		default:
			t.Fatalf("first job = %s, want aborted", firstState)
		}
	}
	t.Fatalf("first job settled before the abort landed in all %d rounds", rounds)
}

// Results served from the job-level cache are byte-identical to the
// fresh computation.
func TestCachedResultBytesIdentical(t *testing.T) {
	srv, ts := newTestServer(t)
	const body = `{"kind":"check","params":{"seed":330001,"compounds":3,"reps":2}}`

	first := submit(t, ts, body)
	pollUntilTerminal(t, ts, first.ID)
	second := submit(t, ts, body)
	pollUntilTerminal(t, ts, second.ID)

	a, err := srv.JobResult(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.JobResult(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("cache-served payload differs from fresh payload")
	}
}
