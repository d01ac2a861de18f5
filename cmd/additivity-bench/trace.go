package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"additivity/internal/memo"
)

// span is one timed layer crossing. Times are nanoseconds since the
// tracer's epoch; a parent of 0 marks a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark writes them out. It
// records only while on, so warm-up traffic stays out of the trace.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// traceHandler is the benchmark's wrapper around the service handler.
// With a tracer it records a span per request — service.serve for job
// traffic, parented to the client span named in the request header, and
// service.peer_serve for a sibling's blob fetch; without one it passes
// straight through, which makes the untraced replay the overhead
// baseline.
type traceHandler struct {
	next http.Handler
	tr   *tracer
}

func (h traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	name := "service.serve"
	if strings.HasPrefix(r.URL.Path, "/v1/peer/") {
		name = "service.peer_serve"
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.record(h.tr.newID(), parent, name, start, time.Now())
}

// tracedPeers is a delegating PeerSource that times every fetch made
// through it.
type tracedPeers struct {
	memo.PeerSource
	tr *tracer
}

func (p tracedPeers) Fetch(key memo.Key) ([]byte, bool) {
	start := time.Now()
	payload, ok := p.PeerSource.Fetch(key)
	p.tr.record(p.tr.newID(), 0, "memo.peer_fetch", start, time.Now())
	return payload, ok
}

// traceMetrics derives the traced per-layer metrics from the spans:
// request and serve durations, the client span's self time (its duration
// less the server spans it caused) and peer fetch durations, in µs.
func (t *tracer) traceMetrics() (out map[string]float64, unsupported []string) {
	spans := t.snapshot()
	child := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var request, serve, self, fetch []float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case "client.request":
			request = append(request, d)
			self = append(self, d-float64(child[s.ID])/1e3)
		case "service.serve":
			serve = append(serve, d)
		case "memo.peer_fetch":
			fetch = append(fetch, d)
		}
	}
	out = map[string]float64{}
	for _, q := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"client.request_p50_us", request, 0.5},
		{"service.serve_p50_us", serve, 0.5},
		{"service.serve_p99_us", serve, 0.99},
		{"client.transport_p50_us", self, 0.5},
		{"memo.peer_fetch_p50_us", fetch, 0.5},
	} {
		sort.Float64s(q.samples)
		v, err := percentile(q.samples, q.q)
		if err != nil {
			unsupported = append(unsupported, q.name+": "+err.Error())
		}
		out[q.name] = v
	}
	return out, unsupported
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
