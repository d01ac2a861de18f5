// Command additivity-load is the ReqBench-style load generator for
// additivityd: it generates or loads a replayable JSON workload trace,
// replays it against a running daemon with a bounded player pool, and
// reports latency percentiles plus success/error/degraded counters —
// the req/s artifact recorded as BENCH_PR6.json.
//
// Usage:
//
//	additivity-load -url http://127.0.0.1:7909[,http://127.0.0.1:7910,...]
//	                [-trace file.json | -gen uniform|skewed -jobs N
//	                 -distinct N -seed N -platform name]
//	                [-players N]
//	                [-out report.json]
//	                [-write-trace file.json] [-statsz] [-digest]
//	                [-chaos-drop P] [-chaos-slow P] [-chaos-seed N]
//
// -url takes a comma-separated replica list. Every attempt goes to the
// replica with the smallest polled /statsz queued+running count plus
// local in-flight count, penalising replicas that failed their last
// exchange, and a failed attempt — shed (429), draining (503) or a
// transport fault — fails over to another replica, so a replica killed
// mid-trace costs retries, not failures. -digest prints a combined
// sha256 over every job result in trace order — two replays of the
// same trace must print the same digest, whatever the fleet did in
// between. -chaos-drop/-chaos-slow inject seeded connection drops and
// slow-loris reads client-side.
//
// With -trace, the named trace file is replayed. Otherwise a trace is
// generated deterministically from (-gen, -jobs, -distinct, -seed,
// -platform); -write-trace saves it for later byte-identical replays.
// A skewed trace is duplicate-heavy (Zipf job mix, exponent -zipf,
// recorded in the trace header) — the shape that makes the cache's
// single-flight merges observable under concurrency. -predict-share
// mixes in analytic predict identities, the service's synchronous
// fast path.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime/pprof"
	"strings"
	"sync"

	"additivity/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("additivity-load: ")
	url := flag.String("url", "http://127.0.0.1:7909", "daemon base URL, or a comma-separated replica list for fleet replays")
	tracePath := flag.String("trace", "", "trace file to replay (overrides generation flags)")
	gen := flag.String("gen", "skewed", "generated trace mix: uniform or skewed")
	jobs := flag.Int("jobs", 200, "generated trace length")
	distinct := flag.Int("distinct", 8, "generated trace identity-pool size")
	seed := flag.Int64("seed", 1, "generated trace seed")
	platformName := flag.String("platform", "haswell", "generated trace platform")
	datasetShare := flag.Float64("dataset-share", 0, "fraction of identities built as dataset jobs")
	trainShare := flag.Float64("train-share", 0, "fraction of identities built as train jobs")
	predictShare := flag.Float64("predict-share", 0, "fraction of identities built as analytic predict jobs")
	zipf := flag.Float64("zipf", 1.2, "skewed mix Zipf exponent (must exceed 1; recorded in the trace header)")
	players := flag.Int("players", 8, "concurrent players")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the replay here (the player side of the load)")
	out := flag.String("out", "", "write the final report JSON here (e.g. BENCH_PR6.json)")
	writeTrace := flag.String("write-trace", "", "save the generated trace JSON here")
	statsz := flag.Bool("statsz", true, "fetch and print the daemon's /statsz after the run")
	digest := flag.Bool("digest", false, "print a combined sha256 over every job result in trace order")
	chaosDrop := flag.Float64("chaos-drop", 0, "probability one HTTP exchange is severed (0..1)")
	chaosSlow := flag.Float64("chaos-slow", 0, "probability a response body is read slow-loris style (0..1)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the chaos fault schedule")
	flag.Parse()

	var trace *loadgen.Trace
	var err error
	if *tracePath != "" {
		data, rerr := os.ReadFile(*tracePath)
		if rerr != nil {
			log.Fatal(rerr)
		}
		trace, err = loadgen.ParseTrace(data)
	} else {
		var skewed bool
		switch *gen {
		case "skewed":
			skewed = true
		case "uniform":
		default:
			log.Fatalf("unknown -gen %q (want uniform or skewed)", *gen)
		}
		trace, err = loadgen.GenerateTrace(loadgen.GenConfig{
			Jobs: *jobs, Seed: *seed, Skewed: skewed, Zipf: *zipf, Distinct: *distinct,
			Platform: *platformName, DatasetShare: *datasetShare, TrainShare: *trainShare,
			PredictShare: *predictShare,
		})
	}
	if err != nil {
		log.Fatal(err)
	}
	if *writeTrace != "" {
		data, err := loadgen.EncodeTrace(trace)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*writeTrace, data, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote trace (%d jobs) to %s", len(trace.Jobs), *writeTrace)
	}

	var bases []string
	for _, u := range strings.Split(*url, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			bases = append(bases, u)
		}
	}
	if len(bases) == 0 {
		log.Fatal("-url named no replicas")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	cfg := loadgen.PlayConfig{
		BaseURLs: bases,
		Trace:    trace,
		Players:  *players,
		Progress: func(p loadgen.ProgressSnapshot) {
			fmt.Fprintf(os.Stderr, "t=%5.1fs submitted=%d completed=%d failed=%d\n",
				p.ElapsedS, p.Submitted, p.Completed, p.Failed)
		},
	}
	if *chaosDrop > 0 || *chaosSlow > 0 {
		cfg.Chaos = &loadgen.ChaosConfig{Seed: *chaosSeed, DropRate: *chaosDrop, SlowRate: *chaosSlow}
	}
	var digests [][]byte
	var digestMu sync.Mutex
	if *digest {
		digests = make([][]byte, len(trace.Jobs))
		cfg.OnResult = func(index int, result []byte) {
			sum := sha256.Sum256(result)
			digestMu.Lock()
			digests[index] = sum[:]
			digestMu.Unlock()
		}
	}
	report, err := loadgen.Play(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(report.String())
	if *digest {
		combined := sha256.New()
		digestMu.Lock()
		missing := 0
		for _, d := range digests {
			if d == nil {
				missing++
				continue
			}
			combined.Write(d)
		}
		digestMu.Unlock()
		if missing > 0 {
			log.Printf("digest covers %d/%d results (%d missing)", len(digests)-missing, len(digests), missing)
		}
		fmt.Printf("results digest: %x\n", combined.Sum(nil))
	}
	if *statsz {
		for _, base := range bases {
			if stats, err := fetchStatsz(base); err != nil {
				log.Printf("statsz %s: %v", base, err)
			} else {
				fmt.Printf("server statsz %s: %s\n", base, stats)
			}
		}
	}
	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote report to %s", *out)
	}
	if report.Failed > 0 || report.Aborted > 0 {
		os.Exit(1)
	}
}

// fetchStatsz returns the daemon's /statsz body compacted to one line.
func fetchStatsz(base string) (string, error) {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return strings.TrimSpace(string(data)), nil
	}
	return buf.String(), nil
}
