package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// encode renders a plan's sequence as bytes: every request body in send
// order with its replica, flags and due time. Equal encodings mean the
// daemon receives identical inputs.
func (p *plan) encode() []byte {
	var b bytes.Buffer
	for _, set := range [][]request{p.warm, p.reqs} {
		for _, r := range set {
			fmt.Fprintf(&b, "%d %t %d %s\n", r.replica, r.bg, r.at, p.bodies[r.id])
		}
		b.WriteString("--\n")
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a := w.gen(1, 400).encode()
		if b := w.gen(1, 400).encode(); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated two different request sequences", w.name)
		}
		if c := w.gen(2, 400).encode(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same request sequence", w.name)
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := genPredictOpen(seed, 15_000)
		n, last := 0, time.Duration(0)
		for _, r := range p.reqs {
			if !r.bg {
				n++
				last = r.at
			}
		}
		if rate := float64(n) / last.Seconds(); math.Abs(rate/predictRate-1) > 0.02 {
			t.Errorf("seed %d: mean arrival rate %.1f/s, want %.0f/s within 2%%", seed, rate, predictRate)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0: must be refused
	}{
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{2000, 0.99, 1980},
		{19, 0.5, 0},
		{20, 0.5, 10},
	} {
		v, err := percentile(ramp(c.n), c.q)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples: got %v, want refusal", c.q*100, c.n, v)
		case c.want != 0 && (err != nil || v != c.want):
			t.Errorf("p%g of %d samples: got %v (%v), want %v", c.q*100, c.n, v, err, c.want)
		}
	}
}

func TestNewScratchExpiresOldDirs(t *testing.T) {
	root := t.TempDir()
	now := time.Now()
	for name, age := range map[string]time.Duration{"old": scratchTTL + time.Hour, "recent": scratchTTL - time.Hour} {
		dir := filepath.Join(root, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(dir, now.Add(-age), now.Add(-age)); err != nil {
			t.Fatal(err)
		}
	}
	tmp, err := newScratch(root, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dir  string
		want bool
	}{{filepath.Join(root, "old"), false}, {filepath.Join(root, "recent"), true}, {tmp, true}} {
		if _, err := os.Stat(c.dir); (err == nil) != c.want {
			t.Errorf("%s: exists %t, want %t", c.dir, err == nil, c.want)
		}
	}
}

func metric(t *testing.T, name string) metricDef {
	t.Helper()
	for _, m := range e2eMetrics {
		if m.name == name {
			return m
		}
	}
	t.Fatalf("no metric %s", name)
	return metricDef{}
}

func TestJudgeVerdicts(t *testing.T) {
	st := func(v, q1, q3 float64) stat { return stat{Value: v, Q1: q1, Q3: q3, Min: q1, Max: q3} }
	for _, c := range []struct {
		metric   string
		old, cur stat
		want     verdict
	}{
		// Throughput and latency carry a 25% bound.
		{"throughput_rps", st(100, 98, 102), st(110, 108, 112), same},
		{"throughput_rps", st(100, 98, 102), st(60, 59, 61), worse},
		{"throughput_rps", st(100, 98, 102), st(140, 139, 141), better},
		{"throughput_rps", st(100, 60, 140), st(95, 90, 100), unresolved},
		{"throughput_rps", st(100, 60, 140), st(200, 190, 210), better},
		{"latency_p50_ms", st(10, 9.9, 10.1), st(14, 13.9, 14.1), worse},
		{"latency_p50_ms", st(10, 9.9, 10.1), st(6, 5.9, 6.1), better},
		{"latency_p50_ms", st(10, 9.9, 10.1), st(11, 10.9, 11.1), same},
		// setup_s may worsen by its 0.05 s floor when that exceeds the bound.
		{"setup_s", st(0.05, 0.04, 0.06), st(0.09, 0.08, 0.10), same},
		{"setup_s", st(0.05, 0.04, 0.06), st(0.12, 0.11, 0.13), worse},
		{"fail_ratio", st(0, 0, 0), st(0, 0, 0), same},
		{"fail_ratio", st(0, 0, 0), st(0.001, 0, 0.003), worse},
	} {
		if got := judge(metric(t, c.metric), c.old, c.cur); got != c.want {
			t.Errorf("%s %+v -> %+v: got %s, want %s", c.metric, c.old, c.cur, got, c.want)
		}
	}
}

func TestCompareExitStatus(t *testing.T) {
	doc := func(tput float64) string {
		d := &document{Schema: schema, Workloads: []*workloadResult{{
			Name: "warm-hit",
			E2E: map[string]stat{
				"throughput_rps": {Value: tput, Q1: tput, Q3: tput, Min: tput, Max: tput},
				"fail_ratio":     {},
			},
			Layers: map[string]stat{"memo.hits": {Value: tput}},
		}}}
		path := filepath.Join(t.TempDir(), "run.json")
		if err := writeJSON(path, d); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fast, slow := doc(1000), doc(500)
	var out bytes.Buffer
	if code := run([]string{"-compare", fast, slow}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower run: exit %d, want 1 with a worse verdict:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", slow, fast}, &out, io.Discard); code != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("faster run: exit %d, want 0 with a better verdict:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "memo.hits") {
		t.Errorf("per-layer deltas missing:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json at the repository
// root equal to the listed workloads and the metric tables this program
// reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var listed []*workloadDef
	for _, w := range workloads {
		if w.listed {
			listed = append(listed, w)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed here", len(b.Workloads), len(listed))
	}
	for i, w := range listed {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, here %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	var e2e []metricDef
	for _, m := range e2eMetrics {
		if m.inResultLine() {
			e2e = append(e2e, m)
		}
	}
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(b.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, here %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, here %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload briefly, traced, against a freshly built
// daemon and checks that each run is correct and prints every metric
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds additivityd and boots daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "additivityd")
	if err := buildDaemon(root, bin); err != nil {
		t.Fatal(err)
	}
	if _, err := readEnv(bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		cfg := runConfig{bin: bin, tmp: t.TempDir(), seed: 1, seconds: 0.5, trace: true, log: io.Discard}
		r, err := runWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct {
			t.Errorf("%s: incorrect run: %+v %v", w.name, r.Failures, r.Errors)
		}
		var out bytes.Buffer
		printWorkload(&out, w, r)
		lines := strings.Split(out.String(), "\n")
		for _, m := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
			found := false
			for _, l := range lines {
				f := strings.Fields(l)
				if len(f) >= 3 && f[0] == m.name && strings.Contains(l, " "+m.unit) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: metric %s (%s) not printed", w.name, m.name, m.unit)
			}
		}
	}
}
