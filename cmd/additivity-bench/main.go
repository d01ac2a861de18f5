// Command additivity-bench is the benchmark for additivityd. It builds
// the daemon from the repository it sits in (without the race detector),
// drives five workloads against fresh daemons from one process with at
// most two client connections, prints every end-to-end and per-layer
// metric with its unit, and checks that every served payload is correct.
//
// Usage, from anywhere inside the repository:
//
//	additivity-bench [-seed N] [-out run.json] [-trace spans.json]
//	additivity-bench -workload NAME -seed N -seconds S -trace 0|1
//	additivity-bench -compare old.json new.json
//
// Without -workload every workload runs at its full-suite request count.
// With -workload one runs, and the last line of standard output is a
// JSON result: {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics, or with tracing on the per-layer metrics.
// -seconds sizes each timed phase from a time budget instead of the
// full-suite counts. -trace adds untraced and traced in-process replays
// and direct layer probes; spans go to the named file ("1": a file under
// .bench_build/trace). -out writes the run document -compare reads.
// Build products and scratch files live under .bench_build at the
// repository root.
//
// Exit status: 0 when every output was correct, 1 when a run failed or
// an output was wrong (or, with -compare, when a metric got worse), 2 on
// bad usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds a -seconds run after the daemon is built, so a hung
// daemon fails the run instead of stalling its caller.
const runDeadline = 170 * time.Second

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("additivity-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload and end with a one-line JSON result")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Float64("seconds", 0, "size each workload's timed phases to about this many seconds in total (0: full-suite counts)")
	traceArg := fs.String("trace", "", `also run the traced replay and layer probes, writing spans to this file ("1": under .bench_build/trace; "0" or empty: off)`)
	outPath := fs.String("out", "", "write the run document to this JSON file")
	compareMode := fs.Bool("compare", false, "compare two run documents given as arguments: old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: additivity-bench -compare old.json new.json")
			return 2
		}
		old, err := readDocument(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		cur, err := readDocument(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if compare(old, cur, stdout) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	list := workloads
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		list = []*workloadDef{w}
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	tracePath := ""
	switch *traceArg {
	case "", "0":
	case "1":
		label := *only
		if label == "" {
			label = "all"
		}
		tracePath = filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d.json", label, *seed))
	default:
		tracePath = *traceArg
	}
	tmp, err := newScratch(filepath.Join(build, "tmp", "run"), time.Now())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	bin := filepath.Join(build, "bin", "additivityd")
	if err := buildDaemon(root, bin); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	env, err := readEnv(bin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *seconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, runDeadline)
		defer cancel()
	}
	report := stdout
	if *only != "" {
		report = stderr
	}
	cfg := runConfig{bin: bin, tmp: tmp, seed: *seed, seconds: *seconds, trace: tracePath != "", log: stderr}
	doc := &document{Schema: schema, Seed: *seed, Seconds: *seconds, Env: env}
	spans := map[string][]span{}
	ok := true
	for _, w := range list {
		r, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		printWorkload(report, w, r)
		doc.Workloads = append(doc.Workloads, r)
		spans[w.name] = r.spans
		ok = ok && r.Correct && len(r.Unsupported) == 0
	}
	printEnv(report, env)
	if tracePath != "" {
		if err := writeJSON(tracePath, map[string]any{"workloads": spans}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "spans written to %s\n", tracePath)
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *only != "" {
		r := doc.Workloads[0]
		if len(r.Unsupported) > 0 {
			fmt.Fprintf(stderr, "too few samples to report: %s\n", strings.Join(r.Unsupported, "; "))
			return 1
		}
		line, err := json.Marshal(resultLine(r, cfg.trace))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line result of a single-workload run: the
// end-to-end metrics, or with tracing the per-layer ones.
func resultLine(r *workloadResult, traced bool) any {
	metrics := map[string]lineMetric{}
	if traced {
		for _, m := range layerMetrics {
			metrics[m.name] = lineMetric{r.Layers[m.name].Value, m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			if m.inResultLine() {
				metrics[m.name] = lineMetric{r.E2E[m.name].Value, m.unit}
			}
		}
	}
	return struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failures.total(), metrics}
}

func printWorkload(w io.Writer, def *workloadDef, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d requests per phase, %d reps, %d windows, latency samples %v, limit %s ==\n",
		r.Name, r.Requests, r.Reps, r.Windows, r.Samples, def.limit)
	// Rates, latency percentiles and CPU per request are medians over
	// the windows; memory and set-up time medians over the repetitions.
	fmt.Fprintf(w, "%-28s %14s %14s %14s  %s\n", "end-to-end", "value", "q1", "q3", "unit")
	for _, m := range e2eMetrics {
		s := r.E2E[m.name]
		fmt.Fprintf(w, "%-28s %14.4f %14.4f %14.4f  %s\n", m.name, s.Value, s.Q1, s.Q3, m.unit)
	}
	fmt.Fprintf(w, "%-28s %14s %8s  %-7s %s\n", "per-layer", "value", "%p50", "unit", "should move")
	p50 := r.E2E["latency_p50_ms"].Value
	for _, m := range layerMetrics {
		s, ok := r.Layers[m.name]
		if !ok {
			continue
		}
		share := ""
		if m.source == "probe" && p50 > 0 {
			switch m.unit {
			case "us":
				share = fmt.Sprintf("%.2f", 100*s.Value/1e3/p50)
			case "ms":
				share = fmt.Sprintf("%.2f", 100*s.Value/p50)
			}
		}
		fmt.Fprintf(w, "%-28s %14.4f %8s  %-7s %s\n", m.name, s.Value, share, m.unit, m.moves)
	}
	fmt.Fprintf(w, "correct %t, attempted %d, failures %+v, digest %s\n", r.Correct, r.Attempted, r.Failures, r.Digest)
	for _, u := range r.Unsupported {
		fmt.Fprintf(w, "unsupported: %s\n", u)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
}

func printEnv(w io.Writer, e envBlock) {
	fmt.Fprintf(w, "\nenv: %s (daemon %s), GOMAXPROCS %d, nproc %d, cpu %q, commit %s, dirty %s, race %t\n",
		e.GoVersion, e.DaemonGoVersion, e.GOMAXPROCS, e.NProc, e.CPUModel, e.Commit, e.Dirty, e.Race)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
