// Package loadgen is the ReqBench-style load harness for the
// additivityd service: replayable JSON workload traces (skewed or
// uniform job mixes, generated deterministically from a seed), a
// bounded player pool feeding a request channel, and a final report
// with latency percentiles and success/error/degraded counters.
//
// A trace is a *replayable* artifact: generating it twice from the
// same configuration yields byte-identical JSON, and replaying it
// against a cache-backed daemon yields byte-identical job results for
// any player count — the service must not break the determinism
// contract, and the harness is built to prove that it doesn't.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"additivity/internal/service"
)

// Trace is one replayable workload: an ordered list of job requests.
// Position in the list is submission order; duplicate entries are the
// point (they exercise the cache and its single-flight).
type Trace struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Zipf records the skewed generator's exponent (0 for uniform
	// traces; omitted from the JSON so traces generated before the
	// exponent was configurable re-encode unchanged).
	Zipf float64              `json:"zipf,omitempty"`
	Jobs []service.JobRequest `json:"jobs"`
}

// GenConfig parameterises deterministic trace generation.
type GenConfig struct {
	// Name labels the trace (default: derived from the mix and seed).
	Name string
	// Jobs is the total number of requests (default 100).
	Jobs int
	// Seed drives every random draw (default 1).
	Seed int64
	// Skewed selects a Zipf-distributed job mix over the identity pool
	// — a duplicate-heavy trace where a few hot identities dominate,
	// the shape that makes single-flight merges observable. The
	// default (false) draws uniformly.
	Skewed bool
	// Zipf is the skewed mix's exponent s (default 1.2; must exceed
	// 1). Larger exponents concentrate more of the trace on the
	// hottest identities. Ignored for uniform traces.
	Zipf float64
	// Distinct sizes the identity pool (default 8).
	Distinct int
	// Platform is the platform every job targets (default haswell).
	Platform string
	// DatasetShare, TrainShare and PredictShare are the fractions of
	// the identity pool built as dataset-build, model-training and
	// analytic-predict jobs (rounded down; the remainder are
	// additivity checks). Defaults are 0: pure check traces, the
	// cheapest and highest-throughput mix. Predict identities exercise
	// the service's synchronous analytic fast path.
	DatasetShare float64
	TrainShare   float64
	PredictShare float64
}

func (c *GenConfig) fill() error {
	if c.Jobs < 0 || c.Distinct < 0 {
		return fmt.Errorf("loadgen: negative generation parameter")
	}
	if c.DatasetShare < 0 || c.TrainShare < 0 || c.PredictShare < 0 ||
		c.DatasetShare+c.TrainShare+c.PredictShare > 1 {
		return fmt.Errorf("loadgen: shares must be non-negative and sum to at most 1")
	}
	if c.Zipf == 0 {
		c.Zipf = 1.2
	}
	if c.Zipf <= 1 {
		return fmt.Errorf("loadgen: zipf exponent must exceed 1, got %v", c.Zipf)
	}
	if c.Jobs == 0 {
		c.Jobs = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Distinct == 0 {
		c.Distinct = 8
	}
	if c.Platform == "" {
		c.Platform = "haswell"
	}
	if c.Name == "" {
		mix := "uniform"
		if c.Skewed {
			mix = "skewed"
		}
		c.Name = fmt.Sprintf("%s-%s-%dx%d-seed%d", c.Platform, mix, c.Jobs, c.Distinct, c.Seed)
	}
	return nil
}

// identityPool builds the distinct job identities a trace draws from.
// Identity i differs from identity j only in its seed (and kind), so
// the pool spans distinct cache keys. Check identities are sized so a
// fresh run computes for tens of milliseconds: long enough that
// concurrent duplicates observe the in-flight twin and merge onto it
// (even on one core, where the scheduler only preempts a computing
// leader every ~10ms), short enough that replays stay sub-second.
func identityPool(cfg GenConfig) ([]service.JobRequest, error) {
	nDataset := int(float64(cfg.Distinct) * cfg.DatasetShare)
	nTrain := int(float64(cfg.Distinct) * cfg.TrainShare)
	nPredict := int(float64(cfg.Distinct) * cfg.PredictShare)
	pool := make([]service.JobRequest, 0, cfg.Distinct)
	for i := 0; i < cfg.Distinct; i++ {
		seed := cfg.Seed + int64(1000*(i+1))
		var req service.JobRequest
		switch {
		case i < nDataset:
			lo := 6500 + 200*i
			req = service.JobRequest{Kind: service.KindDataset, Params: service.JobParams{
				Platform: cfg.Platform, Seed: seed, Reps: 2,
				SweepLo: lo, SweepHi: lo + 600, SweepStep: 300,
			}}
		case i < nDataset+nTrain:
			req = service.JobRequest{Kind: service.KindTrain, Params: service.JobParams{
				Platform: cfg.Platform, Seed: seed, Compounds: 2, Model: "lr",
			}}
		case i < nDataset+nTrain+nPredict:
			// Distinct sizes span distinct cache keys; the analytic tier
			// answers each synchronously on the submit path.
			req = service.JobRequest{Kind: service.KindPredict, Params: service.JobParams{
				Platform: cfg.Platform, Seed: seed, Tier: "analytic",
				App: "mkl-dgemm", AppSize: 2048 + 512*i,
			}}
		default:
			req = service.JobRequest{Kind: service.KindCheck, Params: service.JobParams{
				Platform: cfg.Platform, Seed: seed, Compounds: 12, Reps: 3,
			}}
		}
		if err := req.Normalize(); err != nil {
			return nil, err
		}
		pool = append(pool, req)
	}
	return pool, nil
}

// GenerateTrace builds a trace deterministically from the
// configuration: the same GenConfig always yields byte-identical
// trace JSON, for any host, process or player count.
func GenerateTrace(cfg GenConfig) (*Trace, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	pool, err := identityPool(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Skewed && len(pool) > 1 {
		// v=1 with the configured exponent gives the classic hot-head
		// shape: at the default s=1.2 the top identity draws roughly a
		// third of the calls, mirroring ReqBench's skewed workload
		// generation.
		zipf = rand.NewZipf(rng, cfg.Zipf, 1, uint64(len(pool)-1))
	}
	t := &Trace{Name: cfg.Name, Seed: cfg.Seed, Jobs: make([]service.JobRequest, 0, cfg.Jobs)}
	if zipf != nil {
		// The exponent is part of the trace's replayable identity, so
		// it rides in the header.
		t.Zipf = cfg.Zipf
	}
	for i := 0; i < cfg.Jobs; i++ {
		var idx int
		if zipf != nil {
			idx = int(zipf.Uint64())
		} else {
			idx = rng.Intn(len(pool))
		}
		t.Jobs = append(t.Jobs, pool[idx])
	}
	return t, nil
}

// ParseTrace decodes and validates trace JSON. Every job request is
// normalised in place, so a parsed trace is ready to submit and its
// re-encoding is canonical. Arbitrary input bytes must never panic —
// the parser is fuzzed against that.
func ParseTrace(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("loadgen: parse trace: %w", err)
	}
	for i := range t.Jobs {
		if err := t.Jobs[i].Normalize(); err != nil {
			return nil, fmt.Errorf("loadgen: trace job %d: %w", i, err)
		}
	}
	return &t, nil
}

// EncodeTrace renders a trace as canonical indented JSON: parse and
// encode round-trip byte-identically on normalised traces.
func EncodeTrace(t *Trace) ([]byte, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DistinctJobs returns how many distinct job identities the trace
// contains (by canonical request JSON) — the duplicate-heaviness
// metric: Jobs-DistinctJobs requests are pure cache work.
func (t *Trace) DistinctJobs() (int, error) {
	seen := make(map[string]bool, len(t.Jobs))
	for i := range t.Jobs {
		c, err := service.CanonicalRequest(t.Jobs[i])
		if err != nil {
			return 0, fmt.Errorf("loadgen: trace job %d: %w", i, err)
		}
		seen[c] = true
	}
	return len(seen), nil
}
