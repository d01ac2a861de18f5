package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"additivity/internal/memo"
	"additivity/internal/service"
)

// reps is how many times a run boots a fresh fleet and replays the
// workload. Set-up time and memory are the median over them; the other
// end-to-end metrics the median over their windows.
const reps = 3

// gateSamples is how many served identities a run re-executes in-process.
const gateSamples = 32

// runConfig is one invocation's settings.
type runConfig struct {
	bin  string // the additivityd binary under test
	tmp  string // scratch root; every phase and the probes get a fresh dir below it
	seed int64
	// seconds, when positive, sizes each timed phase to about
	// seconds/reps at the workload's nominal rate; 0 uses the full-suite
	// counts.
	seconds float64
	trace   bool
	log     io.Writer
}

func (c runConfig) count(w *workloadDef) int {
	if c.seconds <= 0 {
		return w.full
	}
	return max(2, int(math.Round(w.perSecond*c.seconds/reps)))
}

// workloadResult is one workload's outcome in a run.
type workloadResult struct {
	Name     string `json:"name"`
	Requests int    `json:"requests_per_phase"`
	Reps     int    `json:"reps"`
	// Samples is each repetition's latency sample count; Windows is how
	// many windows the repetitions were cut into in all.
	Samples   []int           `json:"latency_samples"`
	Windows   int             `json:"windows"`
	E2E       map[string]stat `json:"e2e"`
	Layers    map[string]stat `json:"layers"`
	Attempted int             `json:"attempted"`
	Failures  failures        `json:"failures"`
	Digest    string          `json:"digest"`
	Correct   bool            `json:"correct"`
	// Unsupported lists metrics the run had too few samples to report.
	Unsupported []string `json:"unsupported,omitempty"`
	Errors      []string `json:"errors,omitempty"`

	spans []span
}

// Each timed phase is cut into windows of consecutive foreground
// completions: at least minWindow of them, so every window has its own
// p99, and at most maxWindows per phase. Rates, latency percentiles and
// CPU per request are computed per window and reported as the median
// over every window of every repetition, so a burst of load from outside
// the benchmark moves a few windows, not the result.
const (
	minWindow  = 1000
	maxWindows = 8
)

// windower cuts a timed phase into windows, noting the time and the
// fleet's CPU time at every cut.
type windower struct {
	size, count int
	cpu         func() (int64, error)
	start       time.Time
	done        atomic.Int64
	mu          sync.Mutex
	cuts        []cut // cuts[k] opens window k and cuts[k+1] closes it
	err         error
}

type cut struct {
	at    time.Duration
	cpuNS int64
}

func newWindower(foreground int, cpu func() (int64, error)) *windower {
	count := max(1, min(maxWindows, foreground/minWindow))
	return &windower{size: max(1, foreground/count), count: count, cpu: cpu}
}

// begin opens the first window.
func (c *windower) begin() {
	c.start = time.Now()
	c.mark()
}

// complete counts one foreground completion, closing the current window
// when it is full, and returns the window the completion belongs to. The
// last window also takes the remainder; the caller closes it.
func (c *windower) complete() int {
	if c == nil {
		return 0
	}
	n := int(c.done.Add(1))
	if n%c.size == 0 && n/c.size < c.count {
		c.mark()
	}
	return min((n-1)/c.size, c.count-1)
}

func (c *windower) mark() {
	ns, err := c.cpu()
	at := time.Since(c.start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cuts = append(c.cuts, cut{at, ns})
	if c.err == nil {
		c.err = err
	}
}

// phaseOut is one boot-warm-measure-stop pass over a workload.
type phaseOut struct {
	ph            *phase
	cuts          *windower
	book          *payloadBook
	setup         time.Duration
	before, after []service.Stats
	entries       int // cache dir entries added during the timed phase
	rssKB         int64
}

// runPhase boots a fleet (additivityd processes, or in-process servers
// when inProcess is set), warms it, replays the timed sequence and stops
// it. Set-up time runs from boot to the end of warm-up.
func runPhase(ctx context.Context, cfg runConfig, w *workloadDef, p *plan, inProcess bool, tr *tracer) (*phaseOut, error) {
	tmp, err := os.MkdirTemp(cfg.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var f *fleet
	if inProcess {
		f, err = startInProcess(w, tmp, tr)
	} else {
		f, err = startDaemons(ctx, cfg.bin, w, tmp)
	}
	if err != nil {
		return nil, err
	}
	running := true
	defer func() {
		if running {
			f.stop()
		}
	}()
	conns := 2
	if w.mode == closedLoop {
		conns = 1
	}
	d := &sender{urls: f.urls, p: p, book: newPayloadBook(len(p.ids))}
	for range conns {
		c := newClient(tr)
		defer c.close()
		d.clients = append(d.clients, c)
	}
	warmMode := closedLoop
	if w.mode == lockstep {
		warmMode = lockstep
	}
	if wp := d.run(ctx, warmMode, p.warm, nil); wp.fails.total() > 0 {
		return nil, fmt.Errorf("%s warm-up: %d of %d requests failed: %v", w.name, wp.fails.total(), wp.attempted, wp.errs)
	}
	out := &phaseOut{book: d.book, setup: time.Since(start), cuts: newWindower(p.foreground(), f.cpuNS)}

	entries0, err := f.entries()
	if err != nil {
		return nil, err
	}
	if out.before, err = f.stats(); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.on.Store(true)
	}
	out.cuts.begin()
	out.ph = d.run(ctx, w.mode, p.reqs, out.cuts)
	out.cuts.mark()
	if tr != nil {
		tr.on.Store(false)
	}
	if out.cuts.err != nil {
		return nil, out.cuts.err
	}
	if out.after, err = f.stats(); err != nil {
		return nil, err
	}
	entries1, err := f.entries()
	if err != nil {
		return nil, err
	}
	out.entries = entries1 - entries0
	d.collect(ctx, out.ph)
	if out.rssKB, err = f.peakRSSKB(); err != nil {
		return nil, err
	}
	running = false
	if err := f.stop(); err != nil {
		return nil, err
	}
	return out, ctx.Err()
}

// perRep computes a daemon phase's end-to-end metrics that have one
// value per repetition.
func (o *phaseOut) perRep() map[string]float64 {
	return map[string]float64{
		"fail_ratio":  ratio(float64(o.ph.fails.total()), float64(o.ph.attempted)),
		"rss_peak_mb": float64(o.rssKB) / 1024,
		"setup_s":     o.setup.Seconds(),
	}
}

// windows computes a daemon phase's per-window end-to-end metrics, and
// each window's sorted latencies for the percentiles.
func (o *phaseOut) windows(limit time.Duration) (map[string][]float64, [][]float64) {
	byWin := make([][]float64, o.cuts.count)
	for i, w := range o.ph.window {
		byWin[w] = append(byWin[w], o.ph.latencies[i])
	}
	vals := map[string][]float64{}
	var lats [][]float64
	cuts := o.cuts.cuts
	for k := 0; k+1 < len(cuts) && k < len(byWin); k++ {
		lat := byWin[k]
		sort.Float64s(lat)
		secs := (cuts[k+1].at - cuts[k].at).Seconds()
		ok := float64(len(lat))
		within := sort.Search(len(lat), func(i int) bool { return lat[i] > msOf(limit) })
		vals["throughput_rps"] = append(vals["throughput_rps"], ok/secs)
		vals["goodput_rps"] = append(vals["goodput_rps"], float64(within)/secs)
		vals["cpu_ms_per_req"] = append(vals["cpu_ms_per_req"], ratio(float64(cuts[k+1].cpuNS-cuts[k].cpuNS)/1e6, ok))
		lats = append(lats, lat)
	}
	return vals, lats
}

// pooledPercentile is the q-quantile over every repetition's samples.
// Its samples are the repetitions' own quantiles when each has enough
// samples alone, else just the pooled value.
func pooledPercentile(perRep [][]float64, q float64) (stat, error) {
	var all, reps []float64
	for _, s := range perRep {
		s = append([]float64(nil), s...)
		sort.Float64s(s)
		if v, err := percentile(s, q); err == nil {
			reps = append(reps, v)
		}
		all = append(all, s...)
	}
	sort.Float64s(all)
	v, err := percentile(all, q)
	if len(reps) < len(perRep) {
		reps = []float64{v}
	}
	st := summarize(reps)
	st.Value = v
	return st, err
}

// statszLayers computes the /statsz-derived per-layer metrics: counter
// deltas over the timed phase, summed over replicas.
func (o *phaseOut) statszLayers(cacheDir bool) map[string]float64 {
	var c memo.StatsSnapshot
	var httpReqs, submitted, shed, registry, backlog float64
	for i := range o.after {
		a, b := o.after[i], o.before[i]
		if a.Cache != nil && b.Cache != nil {
			c = c.Add(cacheDelta(*a.Cache, *b.Cache))
		}
		// The closing /statsz read counts itself as a request.
		httpReqs += float64(a.HTTPRequests-b.HTTPRequests) - 1
		submitted += float64(a.Jobs.Submitted - b.Jobs.Submitted)
		shed += float64(a.Shed - b.Shed)
		registry += float64(a.Jobs.Submitted)
		backlog += float64(a.Jobs.Queued + a.Jobs.Running)
	}
	dup := 0.0
	if cacheDir {
		dup = float64(c.Misses) - float64(o.entries)
	}
	requests := float64(c.Requests())
	return map[string]float64{
		"memo.hits":              float64(c.Hits),
		"memo.disk_hits":         float64(c.DiskHits),
		"memo.misses":            float64(c.Misses),
		"memo.merges":            float64(c.SingleFlightMerges),
		"memo.stores":            float64(c.Stores),
		"memo.served_ratio":      ratio(requests-float64(c.Misses), requests),
		"memo.lease_merges":      float64(c.LeaseMerges),
		"memo.lease_bypasses":    float64(c.LeaseBypasses),
		"memo.duplicate_stores":  float64(c.DuplicateStores),
		"memo.dup_measure":       dup,
		"memo.peer_hits":         float64(c.PeerHits),
		"memo.peer_misses":       float64(c.PeerMisses),
		"memo.peer_useful_ratio": ratio(float64(c.PeerHits), float64(c.PeerHits+c.PeerMisses)),
		"service.http_per_job":   ratio(httpReqs, submitted),
		"service.registry_jobs":  registry,
		"service.shed":           shed,
		"service.bg_backlog":     backlog,
	}
}

// cacheDelta is a − b for the counters the per-layer metrics read.
func cacheDelta(a, b memo.StatsSnapshot) memo.StatsSnapshot {
	return memo.StatsSnapshot{
		Hits:               a.Hits - b.Hits,
		DiskHits:           a.DiskHits - b.DiskHits,
		Misses:             a.Misses - b.Misses,
		SingleFlightMerges: a.SingleFlightMerges - b.SingleFlightMerges,
		Stores:             a.Stores - b.Stores,
		LeaseMerges:        a.LeaseMerges - b.LeaseMerges,
		LeaseBypasses:      a.LeaseBypasses - b.LeaseBypasses,
		DuplicateStores:    a.DuplicateStores - b.DuplicateStores,
		PeerHits:           a.PeerHits - b.PeerHits,
		PeerMisses:         a.PeerMisses - b.PeerMisses,
	}
}

// digest combines the payloads served for the timed sequence, in
// sequence order; equal digests mean byte-identical results.
func (o *phaseOut) digest(p *plan) string {
	per := map[int32][32]byte{}
	h := sha256.New()
	for _, r := range p.reqs {
		payload := o.book.first[r.id]
		if payload == nil {
			h.Write([]byte("missing"))
			continue
		}
		sum, ok := per[r.id]
		if !ok {
			sum = sha256.Sum256(payload)
			per[r.id] = sum
		}
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gateIDs samples the identities the correctness gate re-executes.
func gateIDs(p *plan, seed int64) []int32 {
	seen := map[int32]bool{}
	var ids []int32
	for _, r := range p.reqs {
		if !seen[r.id] {
			seen[r.id] = true
			ids = append(ids, r.id)
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids[:min(len(ids), gateSamples)]
}

// runWorkload runs one workload: reps daemon phases for the end-to-end
// and /statsz metrics, then — when tracing — an untraced and a traced
// in-process replay and the layer probes; then the correctness gate.
func runWorkload(ctx context.Context, cfg runConfig, w *workloadDef) (*workloadResult, error) {
	n := cfg.count(w)
	p := w.gen(cfg.seed, n)
	res := &workloadResult{Name: w.name, Requests: n, Reps: reps, E2E: map[string]stat{}, Layers: map[string]stat{}}
	e2e := map[string][]float64{}
	layers := map[string][]float64{}
	gate := gateIDs(p, cfg.seed)
	var phases []*phaseOut
	var digests []string
	note := func(o *phaseOut) {
		res.Attempted += o.ph.attempted
		res.Failures.merge(o.ph.fails)
		res.Errors = append(res.Errors, o.ph.errs...)
		digests = append(digests, o.digest(p))
		phases = append(phases, o)
	}
	var latencies, windowLats, lags [][]float64
	for rep := 0; rep < reps; rep++ {
		o, err := runPhase(ctx, cfg, w, p, false, nil)
		if err != nil {
			return nil, err
		}
		note(o)
		res.Samples = append(res.Samples, len(o.ph.latencies))
		latencies = append(latencies, o.ph.latencies)
		lags = append(lags, o.ph.lags)
		for k, v := range o.perRep() {
			e2e[k] = append(e2e[k], v)
		}
		vals, lats := o.windows(w.limit)
		for k, v := range vals {
			e2e[k] = append(e2e[k], v...)
		}
		windowLats = append(windowLats, lats...)
		for k, v := range o.statszLayers(w.cacheDir) {
			layers[k] = append(layers[k], v)
		}
		fmt.Fprintf(cfg.log, "%s rep %d/%d: %d requests in %.2fs (%.0f/s), %d windows, setup %.3fs, %d failed\n",
			w.name, rep+1, reps, o.ph.attempted, o.ph.elapsed.Seconds(), float64(len(o.ph.latencies))/o.ph.elapsed.Seconds(),
			len(lats), o.setup.Seconds(), o.ph.fails.total())
	}
	res.Windows = len(windowLats)
	for k, v := range e2e {
		res.E2E[k] = summarize(v)
	}
	for k, v := range layers {
		res.Layers[k] = summarize(v)
	}
	pooled := func(into map[string]stat, name string, perRep [][]float64, q float64) {
		st, err := pooledPercentile(perRep, q)
		if err != nil {
			res.Unsupported = append(res.Unsupported, name+": "+err.Error())
		}
		into[name] = st
	}
	// Latency percentiles are the median of the windows' own percentiles
	// when every window has enough samples for one, else they pool every
	// repetition's samples.
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p99_ms", 0.99}} {
		var vals []float64
		for _, lat := range windowLats {
			v, err := percentile(lat, q.q)
			if err != nil {
				vals = nil
				break
			}
			vals = append(vals, v)
		}
		if len(vals) > 0 {
			res.E2E[q.name] = summarize(vals)
		} else {
			pooled(res.E2E, q.name, latencies, q.q)
		}
	}
	pooled(res.Layers, "bench.gen_lag_p99_ms", lags, 0.99)

	if cfg.trace {
		// Untraced and traced in-process replays take turns in the order
		// untraced, traced, traced, untraced, untraced, traced, so neither
		// drift in the machine's speed nor a phase's position favours
		// either side of the overhead ratio.
		tr := newTracer()
		var plainS, tracedS float64
		for i := 0; i < 2*reps; i++ {
			traced := i%4 == 1 || i%4 == 2
			var ptr *tracer
			if traced {
				ptr = tr
			}
			o, err := runPhase(ctx, cfg, w, p, true, ptr)
			if err != nil {
				return nil, err
			}
			note(o)
			if traced {
				tracedS += o.ph.elapsed.Seconds()
			} else {
				plainS += o.ph.elapsed.Seconds()
			}
		}
		res.Layers["bench.trace_overhead_pct"] = summarize([]float64{100 * (tracedS/plainS - 1)})
		tmp, err := os.MkdirTemp(cfg.tmp, "probes-")
		if err != nil {
			return nil, err
		}
		probes, err := runProbes(ctx, p, cfg.seed, tmp, tr)
		if err != nil {
			return nil, fmt.Errorf("%s probes: %w", w.name, err)
		}
		for k, v := range probes {
			res.Layers[k] = summarize([]float64{v})
		}
		tm, unsup := tr.traceMetrics()
		res.Unsupported = append(res.Unsupported, unsup...)
		for k, v := range tm {
			res.Layers[k] = summarize([]float64{v})
		}
		res.spans = tr.snapshot()
		fmt.Fprintf(cfg.log, "%s traced replays: %d spans, overhead %.1f%%\n", w.name, len(res.spans), res.Layers["bench.trace_overhead_pct"].Value)
	}

	// Correctness gate: every phase served identical bytes, and sampled
	// identities match a fresh in-process execution with no cache.
	res.Digest = digests[0]
	consistent := true
	for _, d := range digests[1:] {
		if d != res.Digest {
			consistent = false
			res.Errors = append(res.Errors, fmt.Sprintf("result digests differ between phases: %s vs %s", res.Digest, d))
			break
		}
	}
	for _, id := range gate {
		want, _, err := service.Execute(ctx, nil, p.ids[id])
		if err != nil {
			return nil, fmt.Errorf("gate: execute identity %d: %w", id, err)
		}
		for _, o := range phases {
			if got := o.book.first[id]; got != nil && string(got) != string(want) {
				res.Failures.Gate++
				res.Errors = append(res.Errors, fmt.Sprintf("gate: identity %d served bytes differ from in-process execution", id))
				break
			}
		}
	}
	if len(res.Errors) > 8 {
		res.Errors = res.Errors[:8]
	}
	res.Correct = consistent && res.Failures.total() == 0
	return res, nil
}
