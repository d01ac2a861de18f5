package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"additivity/internal/analytic"
	"additivity/internal/core"
	"additivity/internal/experiments"
	"additivity/internal/machine"
	"additivity/internal/memo"
	"additivity/internal/memo/peer"
	"additivity/internal/platform"
	"additivity/internal/pmc"
	"additivity/internal/service"
	"additivity/internal/workload"
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink any

// probeInputs picks the identities the layer probes call with: the
// workload's own checks, predicts and train job, with seed-derived
// stand-ins for kinds the workload does not send.
func probeInputs(p *plan, seed int64) (checks, predicts []service.JobRequest, train service.JobRequest) {
	seen := map[int32]bool{}
	haveTrain := false
	for _, set := range [][]request{p.reqs, p.warm} {
		for _, r := range set {
			if seen[r.id] {
				continue
			}
			seen[r.id] = true
			req := p.ids[r.id]
			switch {
			case req.Kind == service.KindCheck && len(checks) < 5:
				checks = append(checks, req)
			case req.Kind == service.KindPredict && len(predicts) < 64:
				predicts = append(predicts, req)
			case req.Kind == service.KindTrain && !haveTrain:
				train, haveTrain = req, true
			}
		}
	}
	base := seedBase(seed)
	for k := 0; len(checks) < 3; k++ {
		checks = append(checks, normalized(checkReq(base+900+int64(k), smallCompounds)))
	}
	if len(predicts) == 0 {
		for i, w := range workload.DiverseSuite() {
			predicts = append(predicts, normalized(predictReq(base+900+int64(i), w.Name(), w.DefaultSizes()[0])))
		}
	}
	if !haveTrain {
		train = normalized(trainReq(base + 950))
	}
	return checks, predicts, train
}

func normalized(req service.JobRequest) service.JobRequest {
	if err := req.Normalize(); err != nil {
		panic(fmt.Sprintf("bench: generated an invalid request: %v", err))
	}
	return req
}

// perCallUS times f in rounds of k calls and returns the median
// per-call time in µs. Batching keeps clock reads out of sub-µs calls.
func perCallUS(rounds, k int, f func(i int)) float64 {
	samples := make([]float64, rounds)
	i := 0
	for r := range samples {
		start := time.Now()
		for j := 0; j < k; j++ {
			f(i)
			i++
		}
		samples[r] = usOf(time.Since(start)) / float64(k)
	}
	return medianOf(samples)
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// checkWork is a check job's gather work laid out the way the service
// lays it out: the platform, the event set, the compound suite
// (service.checkSuite's haswell protocol) and the gather units — every
// distinct base application, then every compound.
type checkWork struct {
	req    service.JobRequest
	spec   *platform.Spec
	events []platform.Event
	suite  []workload.CompoundApp
	units  [][]workload.App
	sched  *pmc.Schedule
}

func newCheckWork(req service.JobRequest) (*checkWork, error) {
	p := req.Params
	if p.Platform != "haswell" {
		return nil, fmt.Errorf("probes support haswell checks, got %s", p.Platform)
	}
	spec, err := platform.ByName(p.Platform)
	if err != nil {
		return nil, err
	}
	cw := &checkWork{req: req, spec: spec}
	for _, name := range p.PMCs {
		ev, err := platform.FindEvent(spec, name)
		if err != nil {
			return nil, err
		}
		cw.events = append(cw.events, ev)
	}
	cw.suite = workload.RandomCompounds(workload.BaseApps(workload.DiverseSuite()), p.Compounds, p.Seed)
	seen := map[string]bool{}
	for _, c := range cw.suite {
		for _, part := range c.Parts {
			if !seen[part.Name()] {
				seen[part.Name()] = true
				cw.units = append(cw.units, []workload.App{part})
			}
		}
	}
	for _, c := range cw.suite {
		cw.units = append(cw.units, c.Parts)
	}
	cw.sched, err = pmc.NewSchedule(cw.events, spec.Registers)
	return cw, err
}

func (cw *checkWork) collector() *pmc.Collector {
	p := cw.req.Params
	return pmc.NewCollector(machine.New(cw.spec, p.Seed), p.Seed)
}

// gatherUnit collects one unit's repetitions, as a cold job does.
func (cw *checkWork) gatherUnit(col *pmc.Collector, i int) error {
	parts := cw.units[i%len(cw.units)]
	for r := 0; r < cw.req.Params.Reps; r++ {
		if _, _, err := col.CollectScheduled(cw.sched, parts...); err != nil {
			return err
		}
	}
	return nil
}

// runProbes calls each layer directly on the workload's inputs and
// returns the median cost per call. Scratch cache dirs go under tmp;
// peer fetches are recorded as spans in tr.
func runProbes(ctx context.Context, p *plan, seed int64, tmp string, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	checks, predicts, train := probeInputs(p, seed)
	cw, err := newCheckWork(checks[0])
	if err != nil {
		return nil, err
	}
	// One untimed check first, so lazily built tables are not billed to
	// the first timed call.
	if _, _, err := service.Execute(ctx, nil, checks[0]); err != nil {
		return nil, err
	}

	// The in-process cold job: the first check on a fresh disk-backed
	// cache, wired as the daemon wires it. Cold jobs take turns with
	// rounds of the miss and gather probes, so all meet the machine and
	// the disk in the same state and the parts can be held against the
	// whole.
	var coldMS, units, gatherUS []float64
	var unitPayload, checkPayload []byte
	var misses *missProbe
	for round := 0; round < coldRounds; round++ {
		dir := filepath.Join(tmp, fmt.Sprintf("cold-%d", round))
		cache, err := memo.New(memo.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		payload, report, err := service.Execute(ctx, cache, cw.req)
		if err != nil {
			return nil, err
		}
		coldMS = append(coldMS, usOf(time.Since(start))/1e3)
		units = append(units, float64(report.Tasks))
		if round == 0 {
			checkPayload = payload
			if unitPayload, err = storedEntry(dir); err != nil {
				return nil, err
			}
			if misses, err = newMissProbe(cw, tmp, unitPayload); err != nil {
				return nil, err
			}
		}
		if err := misses.round(missesPerRound); err != nil {
			return nil, err
		}
		us, err := gatherUnitUS(ctx, cw, checkPayload)
		if err != nil {
			return nil, err
		}
		gatherUS = append(gatherUS, us)
	}
	out["service.execute_check_ms"] = medianOf(coldMS)
	out["core.units_per_check"] = medianOf(units)
	missOut, err := misses.results()
	if err != nil {
		return nil, err
	}
	for k, v := range missOut {
		out[k] = v
	}
	if err := misses.peerFetches(tr); err != nil {
		return nil, err
	}

	out["core.unit_gather_us"] = medianOf(gatherUS)
	unitParts, err := probeUnitParts(cw)
	if err != nil {
		return nil, err
	}
	for k, v := range unitParts {
		out[k] = v
	}
	var codecErr error
	out["memo.entry_codec_us"] = perCallUS(32, 16, func(int) {
		got, err := memo.ParseEntry(memo.EncodeEntry(unitPayload))
		if err != nil || len(got) != len(unitPayload) {
			codecErr = fmt.Errorf("entry codec probe: round trip failed: %v", err)
		}
	})
	if codecErr != nil {
		return nil, codecErr
	}

	// The warm fast path's two steps: the job key and the LRU lookup.
	n := min(len(p.ids), 256)
	jobKeys := make([]memo.Key, n)
	lru, err := memo.New(memo.Options{})
	if err != nil {
		return nil, err
	}
	for i := range jobKeys {
		if jobKeys[i], err = service.JobKey(p.ids[i]); err != nil {
			return nil, err
		}
		if _, _, err := lru.GetOrCompute(jobKeys[i], func() ([]byte, bool, error) { return checkPayload, true, nil }); err != nil {
			return nil, err
		}
	}
	out["service.job_key_us"] = perCallUS(32, 16, func(i int) { sink, _ = service.JobKey(p.ids[i%n]) })
	hits := 0
	out["memo.lookup_us"] = perCallUS(32, 16, func(i int) {
		if _, ok := lru.Lookup(jobKeys[i%n]); ok {
			hits++
		}
	})
	if hits != 32*16 {
		return nil, errors.New("lookup probe: warm key missed")
	}

	// Unit-warm checks: every unit cached, the job itself not.
	warm, err := memo.New(memo.Options{})
	if err != nil {
		return nil, err
	}
	var warmMS []float64
	for round := 0; round < 4; round++ {
		for _, req := range checks {
			start := time.Now()
			if _, _, err := service.Execute(ctx, warm, req); err != nil {
				return nil, err
			}
			if round > 0 {
				warmMS = append(warmMS, usOf(time.Since(start))/1e3)
			}
		}
	}
	out["core.check_unit_warm_ms"] = medianOf(warmMS)
	var result service.CheckResult
	if err := json.Unmarshal(checkPayload, &result); err != nil {
		return nil, err
	}
	out["service.payload_encode_us"] = perCallUS(16, 4, func(int) { sink, _ = json.Marshal(result) })

	var pipeMS []float64
	tp := train.Params
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := experiments.RunPipelineContext(ctx, experiments.PipelineConfig{
			Platform: tp.Platform, Seed: tp.Seed, Candidates: tp.PMCs, MaxPMCs: tp.MaxPMCs,
			TolerancePct: tp.TolerancePct, Model: tp.Model, Compounds: tp.Compounds, Workers: tp.Workers,
		}); err != nil {
			return nil, err
		}
		pipeMS = append(pipeMS, usOf(time.Since(start))/1e3)
	}
	out["experiments.pipeline_ms"] = medianOf(pipeMS)

	model := analytic.New(cw.spec)
	apps := make([]workload.App, len(predicts))
	for i, req := range predicts {
		w, err := workload.ByName(req.Params.App)
		if err != nil {
			return nil, err
		}
		apps[i] = workload.App{Workload: w, Size: req.Params.AppSize}
	}
	out["analytic.predict_us"] = perCallUS(32, 16, func(i int) { sink = model.PredictApp(apps[i%len(apps)]) })

	// The cold job should be its units' gather plus their miss and store.
	// Medians do not add up and disk latencies are skewed, so the check
	// holds the cold job's mean time against units × (mean gather + mean
	// leased miss) over the same rounds.
	whole := meanOf(coldMS)
	parts := out["core.units_per_check"] * (meanOf(gatherUS) + meanOf(misses.variants[0].us)) / 1e3
	out["bench.cold_parts_gap_pct"] = 100 * math.Abs(parts-whole) / whole
	return out, nil
}

func meanOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// storedEntry returns the payload of a median-sized entry in a cache dir.
func storedEntry(dir string) ([]byte, error) {
	list, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var payloads [][]byte
	for _, e := range list {
		if !strings.HasSuffix(e.Name(), ".memo") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		payload, err := memo.ParseEntry(raw)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, payload)
	}
	if len(payloads) == 0 {
		return nil, fmt.Errorf("no cache entries in %s", dir)
	}
	sort.Slice(payloads, func(i, j int) bool { return len(payloads[i]) < len(payloads[j]) })
	return payloads[len(payloads)/2], nil
}

// The cold-job probe runs coldRounds in-process cold jobs, each followed
// by missesPerRound calls of every miss-probe variant.
const (
	coldRounds     = 32
	missesPerRound = 4
)

// missProbe times cache misses as a cold job meets them: each compute
// gathers one real unit and returns a unit payload, and the time spent
// inside compute is subtracted, leaving the cache's own miss path
// (lookups, lease, disk store, LRU insert). A leased disk cache, an
// unleased one and a memory-only one take turns, so drift in the
// machine's speed hits all three alike. The leased cache's entries are
// read back at the end for the disk load probe.
type missProbe struct {
	cw       *checkWork
	col      *pmc.Collector
	payload  []byte
	leaseDir string
	variants []*missVariant
	keys     []memo.Key // the leased cache's entries
	calls    int
}

type missVariant struct {
	metric string
	cache  *memo.Cache
	us     []float64
}

func newMissProbe(cw *checkWork, tmp string, payload []byte) (*missProbe, error) {
	m := &missProbe{cw: cw, col: cw.collector(), payload: payload, leaseDir: filepath.Join(tmp, "miss-lease")}
	for _, v := range []struct {
		metric string
		opts   memo.Options
	}{
		{"memo.miss_store_us", memo.Options{Dir: m.leaseDir}},
		{"memo.miss_store_nolease_us", memo.Options{Dir: filepath.Join(tmp, "miss-nolease"), DisableLeases: true}},
		{"memo.miss_mem_us", memo.Options{}},
	} {
		cache, err := memo.New(v.opts)
		if err != nil {
			return nil, err
		}
		m.variants = append(m.variants, &missVariant{metric: v.metric, cache: cache})
	}
	return m, nil
}

// round makes n more misses on every variant.
func (m *missProbe) round(n int) error {
	for end := m.calls + n; m.calls < end; m.calls++ {
		i := m.calls
		for vi, v := range m.variants {
			key := memo.KeyOf(fmt.Sprintf("bench-probe/%s/%d", v.metric, i))
			var inCompute time.Duration
			start := time.Now()
			_, outcome, err := v.cache.GetOrCompute(key, func() ([]byte, bool, error) {
				t := time.Now()
				err := m.cw.gatherUnit(m.col, i)
				inCompute = time.Since(t)
				return m.payload, true, err
			})
			v.us = append(v.us, usOf(time.Since(start)-inCompute))
			if err != nil || outcome != memo.Miss {
				return fmt.Errorf("miss probe: want a miss, got %v (%v)", outcome, err)
			}
			if vi == 0 {
				m.keys = append(m.keys, key)
			}
		}
	}
	return nil
}

// results is every variant's median miss cost and the median disk load
// of the leased cache's entries.
func (m *missProbe) results() (map[string]float64, error) {
	out := map[string]float64{}
	for _, v := range m.variants {
		out[v.metric] = medianOf(v.us)
	}
	store, err := memo.OpenDiskStore(m.leaseDir)
	if err != nil {
		return nil, err
	}
	var loads []float64
	for _, k := range m.keys {
		start := time.Now()
		got, ok, err := store.Load(k)
		loads = append(loads, usOf(time.Since(start)))
		if err != nil || !ok || !bytes.Equal(got, m.payload) {
			return nil, fmt.Errorf("disk load probe: entry missing or changed (%v)", err)
		}
	}
	out["memo.disk_load_us"] = medianOf(loads)
	return out, nil
}

// peerFetches serves the leased cache's entries from a service server on
// a loopback listener and fetches each through a peer client behind the
// tracing PeerSource wrapper, as a replica with -peers does on a miss.
// Every fetch is a hit; each is recorded as a memo.peer_fetch span.
func (m *missProbe) peerFetches(tr *tracer) error {
	cache, err := memo.New(memo.Options{Dir: m.leaseDir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: service.NewServer(service.Options{Cache: cache})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	pc, err := peer.NewClient(peer.Options{Peers: []string{"http://" + ln.Addr().String()}})
	if err != nil {
		return err
	}
	src := tracedPeers{PeerSource: pc, tr: tr}
	tr.on.Store(true)
	defer tr.on.Store(false)
	for _, k := range m.keys {
		if got, ok := src.Fetch(k); !ok || !bytes.Equal(got, m.payload) {
			return errors.New("peer fetch probe: a stored entry was not served intact")
		}
	}
	return nil
}

// gatherUnitUS runs the check on a core Checker built as
// service.Execute builds it, on a fresh memory-only cache, and returns
// the mean interval between its Progress ticks in µs: the mean, since
// units differ (a compound gathers all its parts) and units × mean is
// the job's whole gather. The memory cache makes each unit pay what a
// cold job's unit pays besides the store: the measurement and the
// encoding of its record. The checker's payload must equal want, the
// service's own, so the probe measures the service's work and notices
// if the service's check protocol changes.
func gatherUnitUS(ctx context.Context, cw *checkWork, want []byte) (float64, error) {
	p := cw.req.Params
	checker := core.NewChecker(cw.collector(), core.Config{
		ToleranceFrac: p.TolerancePct / 100, Reps: p.Reps, ReproCVMax: 0.20, Workers: 1,
	})
	var err error
	if checker.Cache, err = memo.New(memo.Options{}); err != nil {
		return 0, err
	}
	var ticks []time.Time
	checker.Progress = func(int, int) { ticks = append(ticks, time.Now()) }
	start := time.Now()
	verdicts, _, err := checker.CheckWithReportContext(ctx, cw.events, cw.suite)
	if err != nil {
		return 0, err
	}
	additive := 0
	for _, v := range verdicts {
		if v.Additive {
			additive++
		}
	}
	got, err := json.Marshal(service.CheckResult{Platform: cw.spec.Name, Verdicts: verdicts, Additive: additive})
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, errors.New("gather probe: checker payload differs from service.Execute's; the probe no longer mirrors the service's check")
	}
	if len(ticks) == 0 {
		return 0, errors.New("gather probe: no progress ticks")
	}
	return usOf(ticks[len(ticks)-1].Sub(start)) / float64(len(ticks)), nil
}

// probeUnitParts times single machine runs and single PMC collection
// passes over a check's units.
func probeUnitParts(cw *checkWork) (map[string]float64, error) {
	m := machine.New(cw.spec, cw.req.Params.Seed)
	col := cw.collector()
	var runs, collects []float64
	for round := 0; round < 3; round++ {
		for _, parts := range cw.units {
			t := time.Now()
			sink = m.Run(parts...)
			runs = append(runs, usOf(time.Since(t)))
			t = time.Now()
			if _, _, err := col.CollectScheduled(cw.sched, parts...); err != nil {
				return nil, err
			}
			collects = append(collects, usOf(time.Since(t)))
		}
	}
	return map[string]float64{
		"machine.run_us": medianOf(runs),
		"pmc.collect_us": medianOf(collects),
	}, nil
}
