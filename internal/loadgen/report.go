package loadgen

import (
	"fmt"
	"strings"

	"additivity/internal/stats"
)

// Latency summarises the end-to-end job latencies of the successful
// requests, in milliseconds.
type Latency struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Report is the final outcome of one trace replay, in the JSON shape
// BENCH_PR6.json records. Succeeded counts jobs that reached the
// done state on complete data; Degraded jobs reached done on
// incomplete data; Aborted and Failed cover every other end.
type Report struct {
	Trace    string `json:"trace"`
	Seed     int64  `json:"seed"`
	Jobs     int    `json:"jobs"`
	Distinct int    `json:"distinct_jobs"`
	Players  int    `json:"players"`

	Succeeded int `json:"succeeded"`
	Degraded  int `json:"degraded"`
	Aborted   int `json:"aborted"`
	Failed    int `json:"failed"`

	// Shed and Draining count 429 and 503 answers from the daemon's
	// admission control — backpressure the player absorbs by retrying,
	// never hard failures. Retries counts every re-attempt, whatever
	// the cause (shed, draining, transport faults, replica failover).
	Shed     int `json:"shed"`
	Draining int `json:"draining"`
	Retries  int `json:"retries"`

	ElapsedS  float64 `json:"elapsed_s"`
	ReqPerSec float64 `json:"req_per_sec"`
	Latency   Latency `json:"latency"`

	// Errors holds the first few distinct error messages, capped, so a
	// failing run is diagnosable from the report alone.
	Errors []string `json:"errors,omitempty"`
}

// maxReportErrors caps the distinct error messages a report retains.
const maxReportErrors = 10

// buildReport folds per-position outcomes into the final report.
func buildReport(cfg PlayConfig, latenciesMS []float64, outcomes []int32, errMsgs []string, elapsedS float64) (*Report, error) {
	distinct, err := cfg.Trace.DistinctJobs()
	if err != nil {
		return nil, err
	}
	r := &Report{
		Trace:    cfg.Trace.Name,
		Seed:     cfg.Trace.Seed,
		Jobs:     len(cfg.Trace.Jobs),
		Distinct: distinct,
		Players:  cfg.Players,
		ElapsedS: elapsedS,
	}
	if cfg.stats != nil {
		r.Shed = int(cfg.stats.shed.Load())
		r.Draining = int(cfg.stats.draining.Load())
		r.Retries = int(cfg.stats.retries.Load())
	}
	var okLatencies []float64
	seenErr := map[string]bool{}
	for i, out := range outcomes {
		switch out {
		case outcomeSuccess:
			r.Succeeded++
			okLatencies = append(okLatencies, latenciesMS[i])
		case outcomeDegraded:
			r.Degraded++
			okLatencies = append(okLatencies, latenciesMS[i])
		case outcomeAborted:
			r.Aborted++
		default:
			r.Failed++
		}
		if msg := errMsgs[i]; msg != "" && !seenErr[msg] && len(r.Errors) < maxReportErrors {
			seenErr[msg] = true
			r.Errors = append(r.Errors, msg)
		}
	}
	if elapsedS > 0 {
		r.ReqPerSec = float64(r.Succeeded+r.Degraded) / elapsedS
	}
	if len(okLatencies) > 0 {
		r.Latency = Latency{
			MeanMS: stats.Mean(okLatencies),
			P50MS:  stats.Percentile(okLatencies, 50),
			P90MS:  stats.Percentile(okLatencies, 90),
			P99MS:  stats.Percentile(okLatencies, 99),
			MaxMS:  stats.Percentile(okLatencies, 100),
		}
	}
	return r, nil
}

// String renders the one-paragraph human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d jobs (%d distinct) x %d players in %.2fs — %.1f req/s\n",
		r.Trace, r.Jobs, r.Distinct, r.Players, r.ElapsedS, r.ReqPerSec)
	fmt.Fprintf(&b, "outcomes: %d succeeded, %d degraded, %d aborted, %d failed\n",
		r.Succeeded, r.Degraded, r.Aborted, r.Failed)
	if r.Shed+r.Draining+r.Retries > 0 {
		fmt.Fprintf(&b, "resilience: %d shed, %d draining, %d retries\n", r.Shed, r.Draining, r.Retries)
	}
	fmt.Fprintf(&b, "latency ms: mean %.1f, p50 %.1f, p90 %.1f, p99 %.1f, max %.1f",
		r.Latency.MeanMS, r.Latency.P50MS, r.Latency.P90MS, r.Latency.P99MS, r.Latency.MaxMS)
	return b.String()
}
