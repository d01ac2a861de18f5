package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric: its name and unit, which
// direction is better, and — for end-to-end metrics — the regression
// bound. BENCHMARK.json at the repository root mirrors these tables
// (TestBenchmarkJSONMatchesTables holds them equal).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; floor is
	// an absolute allowance used when it is larger than bound × median.
	bound float64
	floor float64
	// source says where a per-layer metric comes from: "statsz" (deltas
	// over every timed phase), "trace" (the traced in-process replay) or
	// "probe" (direct calls into one layer). Traced and probe metrics are
	// only produced by traced runs.
	source string
	// moves names the end-to-end metric, and the workload, that a change
	// in this per-layer metric should move.
	moves string
}

// e2eMetrics are the numbers a user of additivityd sees, reported per
// workload as the median over the windows or repetitions of one run.
var e2eMetrics = []metricDef{
	// Bounds are 25%, the widest the benchmark allows, because ten runs on
	// a 2-vCPU VM that shares its host spread by ~4–21% as the host's
	// speed drifts (README.md, "End-to-end metrics"); memory repeats
	// within 2%.
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "goodput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	// fail_ratio is 0 on every correct run, so it is gated as "must not
	// rise" instead of by a share of its median, and BENCHMARK.json
	// carries it as the result line's attempted/failed counts.
	{name: "fail_ratio", unit: "ratio", better: "lower"},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05},
}

// layerMetrics are per-layer numbers. They carry no bound: they explain
// an end-to-end change, they do not gate one.
var layerMetrics = []metricDef{
	{name: "memo.hits", unit: "count", better: "higher", source: "statsz"},
	{name: "memo.disk_hits", unit: "count", better: "higher", source: "statsz"},
	{name: "memo.misses", unit: "count", better: "lower", source: "statsz"},
	{name: "memo.merges", unit: "count", better: "higher", source: "statsz"},
	{name: "memo.stores", unit: "count", better: "lower", source: "statsz"},
	{name: "memo.served_ratio", unit: "ratio", better: "higher", source: "statsz", moves: "throughput_rps on unit-reuse and predict-open"},
	{name: "memo.lease_merges", unit: "count", better: "higher", source: "statsz", moves: "cpu_ms_per_req on fleet-dup"},
	{name: "memo.lease_bypasses", unit: "count", better: "lower", source: "statsz", moves: "cpu_ms_per_req on fleet-dup"},
	{name: "memo.duplicate_stores", unit: "count", better: "lower", source: "statsz", moves: "cpu_ms_per_req on fleet-dup"},
	{name: "memo.dup_measure", unit: "count", better: "lower", source: "statsz", moves: "cpu_ms_per_req on fleet-dup"},
	{name: "memo.peer_hits", unit: "count", better: "higher", source: "statsz", moves: "latency_p50_ms on fleet-dup"},
	{name: "memo.peer_misses", unit: "count", better: "lower", source: "statsz", moves: "latency_p50_ms on fleet-dup"},
	{name: "memo.peer_useful_ratio", unit: "ratio", better: "higher", source: "statsz", moves: "latency_p50_ms on fleet-dup"},
	{name: "service.http_per_job", unit: "req/job", better: "lower", source: "statsz", moves: "throughput_rps on check-cold"},
	{name: "service.registry_jobs", unit: "count", better: "lower", source: "statsz", moves: "rss_peak_mb on warm-hit"},
	{name: "service.shed", unit: "count", better: "lower", source: "statsz", moves: "fail_ratio on predict-open"},
	{name: "service.bg_backlog", unit: "count", better: "lower", source: "statsz", moves: "fail_ratio on predict-open"},
	{name: "bench.gen_lag_p99_ms", unit: "ms", better: "lower", source: "statsz", moves: "none: validity of the load generator"},

	{name: "client.request_p50_us", unit: "us", better: "lower", source: "trace", moves: "latency_p50_ms on warm-hit and predict-open"},
	{name: "service.serve_p50_us", unit: "us", better: "lower", source: "trace", moves: "latency_p50_ms on warm-hit and predict-open"},
	{name: "service.serve_p99_us", unit: "us", better: "lower", source: "trace", moves: "latency_p99_ms on warm-hit and predict-open"},
	{name: "client.transport_p50_us", unit: "us", better: "lower", source: "trace", moves: "latency_p50_ms on warm-hit and predict-open"},
	{name: "memo.peer_fetch_p50_us", unit: "us", better: "lower", source: "trace", moves: "latency_p50_ms on fleet-dup"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", source: "trace", moves: "none: cost of tracing"},

	{name: "service.job_key_us", unit: "us", better: "lower", source: "probe", moves: "cpu_ms_per_req on warm-hit"},
	{name: "memo.lookup_us", unit: "us", better: "lower", source: "probe", moves: "cpu_ms_per_req on warm-hit"},
	{name: "memo.miss_store_us", unit: "us", better: "lower", source: "probe", moves: "throughput_rps on check-cold"},
	{name: "memo.miss_store_nolease_us", unit: "us", better: "lower", source: "probe", moves: "throughput_rps on check-cold"},
	{name: "memo.miss_mem_us", unit: "us", better: "lower", source: "probe", moves: "throughput_rps on check-cold"},
	{name: "memo.disk_load_us", unit: "us", better: "lower", source: "probe", moves: "latency_p99_ms on predict-open and fleet-dup"},
	{name: "memo.entry_codec_us", unit: "us", better: "lower", source: "probe", moves: "latency_p99_ms on predict-open and fleet-dup"},
	{name: "core.check_unit_warm_ms", unit: "ms", better: "lower", source: "probe", moves: "throughput_rps on unit-reuse"},
	{name: "service.payload_encode_us", unit: "us", better: "lower", source: "probe", moves: "throughput_rps on unit-reuse"},
	{name: "service.execute_check_ms", unit: "ms", better: "lower", source: "probe", moves: "throughput_rps on check-cold"},
	{name: "core.units_per_check", unit: "count", better: "lower", source: "probe", moves: "throughput_rps on check-cold"},
	{name: "core.unit_gather_us", unit: "us", better: "lower", source: "probe", moves: "throughput_rps on check-cold"},
	{name: "machine.run_us", unit: "us", better: "lower", source: "probe", moves: "throughput_rps on check-cold"},
	{name: "pmc.collect_us", unit: "us", better: "lower", source: "probe", moves: "throughput_rps on check-cold"},
	{name: "bench.cold_parts_gap_pct", unit: "%", better: "lower", source: "probe", moves: "none: probes must add up to service.execute_check_ms"},
	{name: "experiments.pipeline_ms", unit: "ms", better: "lower", source: "probe", moves: "setup_s on warm-hit"},
	{name: "analytic.predict_us", unit: "us", better: "lower", source: "probe", moves: "none: bypass control on predict-open"},
}

// inResultLine reports whether an end-to-end metric is printed on the
// one-line result of a single-workload run: every one except fail_ratio,
// which that line carries as its failed and attempted counts.
func (m metricDef) inResultLine() bool { return m.name != "fail_ratio" }

// stat is one metric over the samples of a run — its windows, or its
// repetitions: the median, the quartiles, the extremes and every sample.
type stat struct {
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func summarize(values []float64) stat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return stat{Value: median(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1], Samples: values}
}

// quantile interpolates the q-quantile of sorted values linearly between
// the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median of sorted values (the mean of the middle two for even counts).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples. It
// refuses a percentile with fewer than minBeyond samples beyond it, so
// p99 needs at least 1000 samples and p50 at least 20.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	need := int(math.Ceil(minBeyond/(1-q) - 1e-9))
	if n < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, need, n)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], nil
}

// ratio divides, reading 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
