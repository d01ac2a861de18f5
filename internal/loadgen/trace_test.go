package loadgen

import (
	"bytes"
	"testing"

	"additivity/internal/service"
	"additivity/internal/stats"
)

// The same GenConfig must yield byte-identical trace JSON every time —
// a trace is a replayable artifact, not a one-off sample.
func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := GenConfig{Jobs: 60, Distinct: 6, Seed: 42, Skewed: true, TrainShare: 0.2, DatasetShare: 0.2}
	a, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := EncodeTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := EncodeTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Error("same GenConfig produced different trace JSON")
	}
}

// A different seed must change the draw sequence.
func TestGenerateTraceSeedMatters(t *testing.T) {
	a, err := GenerateTrace(GenConfig{Jobs: 60, Distinct: 6, Seed: 1, Skewed: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(GenConfig{Jobs: 60, Distinct: 6, Seed: 2, Skewed: true})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := EncodeTrace(a)
	bj, _ := EncodeTrace(b)
	if bytes.Equal(aj, bj) {
		t.Error("seeds 1 and 2 produced identical traces")
	}
}

// A skewed trace must be duplicate-heavy: far fewer identities than
// jobs, with the hot identity drawing a large share.
func TestSkewedTraceIsDuplicateHeavy(t *testing.T) {
	trace, err := GenerateTrace(GenConfig{Jobs: 200, Distinct: 8, Seed: 1, Skewed: true})
	if err != nil {
		t.Fatal(err)
	}
	distinct, err := trace.DistinctJobs()
	if err != nil {
		t.Fatal(err)
	}
	if distinct > 8 {
		t.Fatalf("distinct identities = %d, want at most 8", distinct)
	}
	counts := make(map[string]int)
	for _, req := range trace.Jobs {
		c, err := service.CanonicalRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		counts[c]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < len(trace.Jobs)/4 {
		t.Errorf("hot identity draws %d of %d jobs — not Zipf-skewed", max, len(trace.Jobs))
	}
}

// The share knobs must produce a mixed-kind pool.
func TestSharesProduceMixedKinds(t *testing.T) {
	trace, err := GenerateTrace(GenConfig{
		Jobs: 100, Distinct: 10, Seed: 5, DatasetShare: 0.2, TrainShare: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[service.JobKind]int)
	for _, req := range trace.Jobs {
		kinds[req.Kind]++
	}
	for _, k := range []service.JobKind{service.KindCheck, service.KindTrain, service.KindDataset} {
		if kinds[k] == 0 {
			t.Errorf("no %s jobs in a mixed trace (kinds: %v)", k, kinds)
		}
	}
}

func TestGenerateTraceRejectsBadShares(t *testing.T) {
	if _, err := GenerateTrace(GenConfig{DatasetShare: 0.7, TrainShare: 0.7}); err == nil {
		t.Error("shares summing past 1 were accepted")
	}
	if _, err := GenerateTrace(GenConfig{Jobs: -1}); err == nil {
		t.Error("negative job count was accepted")
	}
}

// Encode → Parse → Encode must round-trip byte-identically: the parsed
// form of a generated trace is already normalised and canonical.
func TestTraceRoundTrip(t *testing.T) {
	trace, err := GenerateTrace(GenConfig{Jobs: 30, Distinct: 5, Seed: 7, Skewed: true, TrainShare: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := EncodeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeTrace(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("encode/parse/encode did not round-trip byte-identically")
	}
}

// ParseTrace must reject traces whose jobs do not validate.
func TestParseTraceRejectsInvalidJobs(t *testing.T) {
	for _, data := range []string{
		`{"name":"x","seed":1,"jobs":[{"kind":"sideways"}]}`,
		`{"name":"x","seed":1,"jobs":[{"kind":"check","params":{"compounds":-3}}]}`,
		`{"name":"x","seed":1,"jobs":[{"kind":"check","params":{"platform":"m1"}}]}`,
		`not json at all`,
	} {
		if _, err := ParseTrace([]byte(data)); err == nil {
			t.Errorf("ParseTrace accepted invalid input %q", data)
		}
	}
}

// The report math must fold per-position outcomes correctly.
func TestBuildReportCounters(t *testing.T) {
	trace, err := GenerateTrace(GenConfig{Jobs: 4, Distinct: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PlayConfig{BaseURL: "http://unused", Trace: trace, Players: 2}
	latencies := []float64{10, 20, 0, 0}
	outcomes := []int32{outcomeSuccess, outcomeDegraded, outcomeAborted, outcomeFailed}
	errs := []string{"", "", "job job-3 aborted", "job job-4 failed: boom"}
	r, err := buildReport(cfg, latencies, outcomes, errs, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded != 1 || r.Degraded != 1 || r.Aborted != 1 || r.Failed != 1 {
		t.Errorf("counters = %d/%d/%d/%d, want 1 each", r.Succeeded, r.Degraded, r.Aborted, r.Failed)
	}
	wantDistinct, err := trace.DistinctJobs()
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 4 || r.Distinct != wantDistinct || r.Players != 2 {
		t.Errorf("report shape = jobs %d distinct %d players %d, want 4/%d/2",
			r.Jobs, r.Distinct, r.Players, wantDistinct)
	}
	// Latency folds successful and degraded jobs only; these folds are
	// exact in IEEE arithmetic, so bit identity is the contract.
	if !stats.SameFloat(r.Latency.MeanMS, 15) || !stats.SameFloat(r.Latency.MaxMS, 20) {
		t.Errorf("latency mean/max = %v/%v, want 15/20", r.Latency.MeanMS, r.Latency.MaxMS)
	}
	// Throughput counts completed-with-payload jobs over elapsed time.
	if !stats.SameFloat(r.ReqPerSec, 1) {
		t.Errorf("req_per_sec = %v, want 1", r.ReqPerSec)
	}
	if len(r.Errors) != 2 {
		t.Errorf("errors = %v, want the two distinct messages", r.Errors)
	}
}

func TestPlayConfigValidation(t *testing.T) {
	trace, err := GenerateTrace(GenConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Play(PlayConfig{Trace: trace}); err == nil {
		t.Error("Play accepted an empty BaseURL")
	}
	if _, err := Play(PlayConfig{BaseURL: "http://x"}); err == nil {
		t.Error("Play accepted a nil trace")
	}
	if _, err := Play(PlayConfig{BaseURL: "http://x", Trace: trace, Players: -2}); err == nil {
		t.Error("Play accepted negative players")
	}
}

// The Zipf exponent is part of a skewed trace's replayable identity:
// it rides in the header, changes the draw sequence, and round-trips
// through encode/parse byte-identically. Uniform traces omit it, so
// traces generated before the exponent was configurable re-encode
// unchanged.
func TestZipfExponentRoundTrips(t *testing.T) {
	steep, err := GenerateTrace(GenConfig{Jobs: 200, Distinct: 8, Seed: 1, Skewed: true, Zipf: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SameFloat(steep.Zipf, 2.5) {
		t.Errorf("header zipf = %v, want 2.5", steep.Zipf)
	}
	def, err := GenerateTrace(GenConfig{Jobs: 200, Distinct: 8, Seed: 1, Skewed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SameFloat(def.Zipf, 1.2) {
		t.Errorf("default header zipf = %v, want 1.2", def.Zipf)
	}
	steepJSON, _ := EncodeTrace(steep)
	defJSON, _ := EncodeTrace(def)
	if bytes.Equal(steepJSON, defJSON) {
		t.Error("exponent 2.5 and 1.2 drew identical traces")
	}
	parsed, err := ParseTrace(steepJSON)
	if err != nil {
		t.Fatal(err)
	}
	reenc, err := EncodeTrace(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(steepJSON, reenc) {
		t.Error("zipf header did not round-trip byte-identically")
	}

	uniform, err := GenerateTrace(GenConfig{Jobs: 10, Distinct: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	uj, _ := EncodeTrace(uniform)
	if bytes.Contains(uj, []byte(`"zipf"`)) {
		t.Error("uniform trace encodes a zipf header")
	}

	if _, err := GenerateTrace(GenConfig{Jobs: 10, Skewed: true, Zipf: 0.9}); err == nil {
		t.Error("zipf exponent <= 1 accepted")
	}
}

// PredictShare builds analytic-predict identities into the pool; they
// normalise and span distinct cache keys like every other kind.
func TestPredictShareBuildsPredictIdentities(t *testing.T) {
	trace, err := GenerateTrace(GenConfig{Jobs: 40, Distinct: 4, Seed: 3, PredictShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nPredict := 0
	for _, j := range trace.Jobs {
		if j.Kind == service.KindPredict {
			nPredict++
			if j.Params.Tier != "analytic" || j.Params.AppSize == 0 {
				t.Fatalf("predict identity not normalised: %+v", j.Params)
			}
		}
	}
	if nPredict == 0 {
		t.Error("no predict jobs drawn from a half-predict pool")
	}
	if _, err := GenerateTrace(GenConfig{Jobs: 10, PredictShare: 0.6, TrainShare: 0.6}); err == nil {
		t.Error("shares summing past 1 accepted")
	}
}
