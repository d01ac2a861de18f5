// Command additivityd is the additivity-as-a-service daemon: a
// long-running HTTP/JSON server that accepts additivity-check,
// model-training and dataset-build jobs, runs them on the experiment
// engine backed by the content-addressed measurement cache, and serves
// job submit/poll/result endpoints plus health and stats probes.
//
// Usage:
//
//	additivityd [-addr host:port] [-cache-dir dir] [-cache-max-bytes N]
//	            [-max-jobs N] [-max-queue N] [-job-timeout dur]
//	            [-drain-timeout dur] [-pprof-addr host:port]
//	            [-peers url,url,...] [-peer-timeout dur] [-peer-hedge dur]
//
// Endpoints:
//
//	GET    /healthz              liveness probe ("ok", or "degraded:
//	                             <reason>" under breaker or queue
//	                             pressure — still HTTP 200: degraded
//	                             is an honest state, not an outage)
//	GET    /statsz               cache, job and fault counters (JSON)
//	POST   /v1/jobs              submit a job (optional ?wait=2s to
//	                             long-poll and ?result=1 to inline a
//	                             done job's payload — the single
//	                             round-trip fast path)
//	GET    /v1/jobs              list jobs in submission order
//	GET    /v1/jobs/{id}         poll one job (same ?wait / ?result)
//	GET    /v1/jobs/{id}/result  fetch a done job's result payload
//	DELETE /v1/jobs/{id}         abort a queued or running job
//	GET    /v1/peer/blob/{digest} serve one stored cache entry to a
//	                             sibling replica (memo1 wire framing)
//
// Peer cache tier: -peers lists sibling replicas' base URLs. On a
// local cache miss the daemon asks them for the entry (hedged
// fan-out, first valid response wins, per-peer circuit breakers)
// before measuring, and writes fetched entries through to its own
// store — so replicas without a shared cache directory still share
// measurement work. -peer-timeout bounds each per-peer attempt and
// -peer-hedge sets the slow-peer budget before a backup request
// launches (negative disables hedging).
//
// Overload control: pooled submissions beyond -max-queue are shed with
// 429 "overloaded" and a Retry-After (the warm fast path is never
// shed); -job-timeout bounds every job's lifetime, queue wait
// included; -cache-max-bytes caps the shared disk cache, compacted via
// the warm/cold tier split.
//
// On SIGTERM or SIGINT the daemon drains: new submissions are refused
// with 503 while queued and running jobs finish (bounded by
// -drain-timeout, after which they are aborted), then the process
// exits 0. The bound address is printed to stdout as
// "listening on <addr>" so supervisors (and the smoke tests) can bind
// port 0 and discover the port.
//
// -pprof-addr (off by default) starts net/http/pprof on a second,
// separate listener so profiling traffic never competes with — or gets
// accounted as — job traffic. Typical capture against a loaded daemon,
// with load from the additivity package's PlayLoadTrace or any HTTP
// client:
//
//	additivityd -addr :7909 -pprof-addr 127.0.0.1:7910 &
//	go tool pprof http://127.0.0.1:7910/debug/pprof/profile?seconds=10
//	go tool pprof http://127.0.0.1:7910/debug/pprof/allocs
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"additivity/internal/memo"
	"additivity/internal/memo/peer"
	"additivity/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("additivityd: ")
	addr := flag.String("addr", "127.0.0.1:7909", "listen address (use :0 for an ephemeral port)")
	cacheDir := flag.String("cache-dir", "", "content-addressed measurement cache directory (empty: in-memory cache only)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "disk cache size budget in bytes; exceeding it triggers warm/cold compaction (0: unbounded)")
	maxJobs := flag.Int("max-jobs", 0, "maximum concurrently running jobs (0: GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, fmt.Sprintf("maximum queued pooled jobs before submissions are shed with 429 (0: %d, negative: unbounded)", service.DefaultMaxQueuedJobs))
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job deadline, queue wait included; ?timeout= overrides per request (0: none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs on shutdown before aborting them")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener (empty: profiling off)")
	peers := flag.String("peers", "", "comma-separated sibling replica base URLs to fetch cache entries from before measuring (empty: peer tier off)")
	peerTimeout := flag.Duration("peer-timeout", peer.DefaultTimeout, "per-peer fetch attempt timeout")
	peerHedge := flag.Duration("peer-hedge", peer.DefaultHedgeDelay, "slow-peer budget before a backup fetch launches against the next peer (negative: hedging off)")
	flag.Parse()

	// The daemon always runs cache-backed: an in-memory cache still
	// gives duplicate jobs single-flight dedup and warm hits within the
	// process; a -cache-dir extends that across restarts and replicas.
	cache, err := memo.New(memo.Options{Dir: *cacheDir, DiskMaxBytes: *cacheMaxBytes})
	if err != nil {
		log.Fatal(err)
	}
	if *peers != "" {
		pc, err := peer.NewClient(peer.Options{
			Peers:      strings.Split(*peers, ","),
			Timeout:    *peerTimeout,
			HedgeDelay: *peerHedge,
		})
		if err != nil {
			log.Fatal(err)
		}
		cache.SetPeers(pc)
		log.Printf("peer cache tier: %d peers, %s timeout, %s hedge delay", pc.NumPeers(), *peerTimeout, *peerHedge)
	}
	srv := service.NewServer(service.Options{
		Cache:             cache,
		MaxConcurrentJobs: *maxJobs,
		MaxQueuedJobs:     *maxQueue,
		DefaultJobTimeout: *jobTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}

	// Profiling lives on its own listener and its own mux: the job
	// endpoint never exposes pprof (the service handler owns a private
	// mux, so the DefaultServeMux registrations are unreachable there),
	// and profile scrapes are not counted as job traffic.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("serving pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, pmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	// Announce the bound address on stdout (flushed line-buffered) so
	// callers that asked for :0 can discover the port.
	fmt.Printf("listening on %s\n", ln.Addr())
	log.Printf("serving jobs on http://%s (cache dir %q, max jobs %d)", ln.Addr(), *cacheDir, *maxJobs)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		log.Printf("received %s: draining", sig)
	case err := <-serveErr:
		log.Fatal(err)
	}

	// Drain: refuse new submissions, let in-flight jobs finish, then
	// stop the HTTP listener. Jobs still running at the deadline are
	// aborted so the process always exits.
	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain deadline passed: aborting remaining jobs")
		srv.AbortAll()
		fallback, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		_ = srv.Drain(fallback)
	}
	shutdownCtx, cancel3 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel3()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	st := srv.Stats()
	log.Printf("drained: %d jobs done, %d failed, %d aborted; exiting",
		st.Jobs.Done, st.Jobs.Failed, st.Jobs.Aborted)
}
