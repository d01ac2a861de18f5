package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"regexp"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"additivity/internal/loadgen"
	"additivity/internal/memo"
	"additivity/internal/service"
)

// fault is the one failure a gate row injects, given as data: replica
// kill is SIGKILLed once killAfter job results have been delivered and,
// when restartAfter is set, rebooted on its own address with its own
// flags once restartAfter have. A zero killAfter injects nothing.
type fault struct {
	kill, killAfter, restartAfter int
}

// TestGates replays the skewed 200-job trace (seed 1, 8 distinct
// haswell checks, Zipf 1.2) against subprocess replicas and requires
// every row to reproduce the baseline's results digest byte for byte
// with no failed or aborted job and no race report from any replica.
// The parent test runs the baseline, so any single row runs alone.
func TestGates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	// Replicas are race-instrumented exactly when this test binary is.
	var flags []string
	if raceEnabled() {
		flags = append(flags, "-race")
	}
	bin := buildBinary(t, flags...)
	trace, err := loadgen.GenerateTrace(loadgen.GenConfig{
		Jobs: 200, Seed: 1, Distinct: 8, Platform: "haswell", Skewed: true, Zipf: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: one replica over a private cache dir. Stopping it
	// leaves the directory warm and the address free for the peer row.
	baseDir := t.TempDir()
	base := startDaemon(t, bin, "127.0.0.1:0", "-cache-dir", baseDir)
	want, _ := replay(t, bin, trace, 8, []*daemon{base}, fault{})
	base.term(t)

	rows := []struct {
		name    string
		players int
		// boot starts the fleet; its order is the replay's BaseURLs.
		boot  func(t *testing.T) []*daemon
		fault fault
		check func(t *testing.T, fleet []*daemon, report *loadgen.Report)
	}{
		{
			// In-memory replica: duplicates are served from the cache,
			// a warm replay recomputes nothing, SIGTERM drains clean.
			name: "load", players: 8,
			boot: func(t *testing.T) []*daemon {
				return []*daemon{startDaemon(t, bin, "127.0.0.1:0", "-max-jobs", "8")}
			},
			check: func(t *testing.T, fleet []*daemon, _ *loadgen.Report) {
				cold := cacheStats(t, fleet[0])
				t.Logf("cold replay: %d hits, %d merges, %d misses", cold.Hits, cold.SingleFlightMerges, cold.Misses)
				if cold.Hits+cold.SingleFlightMerges == 0 {
					t.Errorf("cold replay served no duplicate from the cache: %+v", cold)
				}
				if got, _ := replay(t, bin, trace, 8, fleet, fault{}); got != want {
					t.Errorf("warm results digest %s, baseline %s", got, want)
				}
				if warm := cacheStats(t, fleet[0]); warm.Misses != cold.Misses {
					t.Errorf("warm replay recomputed cached units: misses %d -> %d", cold.Misses, warm.Misses)
				}
				fleet[0].term(t)
			},
		},
		{
			// Three replicas on one cache dir; r1 dies without releasing
			// its leases and comes back on its own address.
			name: "shared-dir", players: 12,
			boot: func(t *testing.T) []*daemon {
				dir := t.TempDir()
				fleet := make([]*daemon, 3)
				for i := range fleet {
					fleet[i] = startDaemon(t, bin, "127.0.0.1:0", "-cache-dir", dir)
				}
				return fleet
			},
			fault: fault{kill: 0, killAfter: 40, restartAfter: 100},
			check: func(t *testing.T, fleet []*daemon, report *loadgen.Report) {
				var dups, leaseMerges uint64
				for _, d := range fleet {
					st := cacheStats(t, d)
					dups += st.DuplicateStores
					leaseMerges += st.LeaseMerges
				}
				if dups != 0 {
					t.Errorf("fleet stored %d duplicates; cross-process single-flight leaked", dups)
				}
				t.Logf("%d lease merges, %d retries", leaseMerges, report.Retries)
				if leaseMerges == 0 {
					t.Error("fleet recorded no lease merge; cross-process coordination never fired")
				}
				if report.Retries == 0 {
					t.Error("r1 died mid-trace but the replay recorded no retries")
				}
			},
		},
		{
			// Separate dirs wired with -peers: A reboots on the
			// baseline's address over its warm dir, B and C start cold
			// and can reach the entries only over the peer wire.
			name: "peer", players: 12,
			boot: func(t *testing.T) []*daemon {
				b := startDaemon(t, bin, "127.0.0.1:0", "-cache-dir", t.TempDir(), "-peers", base.baseURL)
				c := startDaemon(t, bin, "127.0.0.1:0", "-cache-dir", t.TempDir(), "-peers", base.baseURL+","+b.baseURL)
				a := startDaemon(t, bin, base.addr, "-cache-dir", baseDir, "-peers", b.baseURL+","+c.baseURL)
				return []*daemon{a, b, c}
			},
			fault: fault{kill: 2, killAfter: 40},
			check: func(t *testing.T, fleet []*daemon, report *loadgen.Report) {
				a, b := cacheStats(t, fleet[0]), cacheStats(t, fleet[1])
				t.Logf("%d peer hits, %d retries", a.PeerHits+b.PeerHits, report.Retries)
				if a.PeerHits+b.PeerHits == 0 {
					t.Error("peer fleet recorded no peer hit; the wire never served an entry")
				}
				if a.Misses != 0 {
					t.Errorf("warm replica A measured %d units it already had", a.Misses)
				}
				if report.Retries == 0 {
					t.Error("C died mid-trace but the replay recorded no retries")
				}
			},
		},
		{
			// A small replica under twice the baseline's players sheds
			// with 429s; the player retries every shed, so no job fails.
			name: "overload", players: 16,
			boot: func(t *testing.T) []*daemon {
				return []*daemon{startDaemon(t, bin, "127.0.0.1:0", "-max-jobs", "4", "-max-queue", "2")}
			},
			check: func(t *testing.T, _ []*daemon, report *loadgen.Report) {
				t.Logf("%d shed", report.Shed)
				if report.Shed == 0 {
					t.Error("overloaded replica shed nothing; admission control never engaged")
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fleet := row.boot(t)
			got, report := replay(t, bin, trace, row.players, fleet, row.fault)
			if got != want {
				t.Errorf("results digest %s, baseline %s", got, want)
			}
			row.check(t, fleet, report)
			for _, d := range fleet {
				d.kill(t)
			}
		})
	}
}

// replay plays trace against fleet with the given number of players,
// injecting f, and returns the combined sha256 over every job result in
// trace order plus the player's report. Any failed or aborted job fails
// the test. A player that delivers a result past a fault's count waits
// until the fault has landed, so each kill and restart happens at its
// count of delivered results, never after a sleep; a restarted replica
// replaces its predecessor in fleet.
func replay(t *testing.T, bin string, trace *loadgen.Trace, players int, fleet []*daemon, f fault) (string, *loadgen.Report) {
	t.Helper()
	type step struct {
		at            int
		act           func()
		reached, done chan struct{}
	}
	var steps []*step
	if f.killAfter > 0 {
		steps = append(steps, &step{at: f.killAfter, act: func() { fleet[f.kill].kill(t) }})
		if f.restartAfter > 0 {
			steps = append(steps, &step{at: f.restartAfter, act: func() {
				old := fleet[f.kill]
				fleet[f.kill] = startDaemon(t, bin, old.addr, old.args...)
			}})
		}
	}
	for _, s := range steps {
		s.reached, s.done = make(chan struct{}), make(chan struct{})
	}

	urls := make([]string, len(fleet))
	for i, d := range fleet {
		urls[i] = d.baseURL
	}
	sums := make([][sha256.Size]byte, len(trace.Jobs))
	var delivered atomic.Int64
	cfg := loadgen.PlayConfig{
		BaseURLs: urls,
		Trace:    trace,
		Players:  players,
		// Each position is delivered once, by one player; Play returns
		// only after every player has, which publishes sums.
		OnResult: func(index int, result []byte) {
			sums[index] = sha256.Sum256(result)
			n := int(delivered.Add(1))
			for _, s := range steps {
				if n == s.at {
					close(s.reached)
				}
				if n >= s.at {
					<-s.done
				}
			}
		},
	}
	var report *loadgen.Report
	var err error
	played := make(chan struct{})
	go func() {
		defer close(played)
		report, err = loadgen.Play(cfg)
	}()
	next := 0
	// However this returns, release every waiting player and let the
	// replay finish, so no player outlives the test.
	defer func() {
		for ; next < len(steps); next++ {
			close(steps[next].done)
		}
		<-played
	}()
	for ; next < len(steps); next++ {
		s := steps[next]
		select {
		case <-s.reached:
		case <-played:
			t.Fatalf("replay ended after %d results, before the fault due at %d", delivered.Load(), s.at)
		}
		s.act()
		close(s.done)
	}
	<-played
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || report.Aborted != 0 {
		t.Fatalf("replay had %d failed and %d aborted jobs: %v", report.Failed, report.Aborted, report.Errors)
	}
	combined := sha256.New()
	for _, sum := range sums {
		combined.Write(sum[:])
	}
	return hex.EncodeToString(combined.Sum(nil)), report
}

// raceEnabled reports whether this test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// cacheStats decodes the replica's /statsz and returns its measurement
// cache counters.
func cacheStats(t *testing.T, d *daemon) memo.StatsSnapshot {
	t.Helper()
	resp, err := http.Get(d.baseURL + "/statsz")
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statsz %s: %v", d.baseURL, err)
	}
	if st.Cache == nil {
		t.Fatalf("statsz %s carries no cache counters", d.baseURL)
	}
	return *st.Cache
}

// kill SIGKILLs the replica, waits for it to exit and fails the test if
// the race detector reported in its log. A replica that has already
// exited was checked when it was stopped.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	d.checkRaces(t)
}

// drainedClean matches the drain log line of a shutdown that failed and
// aborted nothing.
var drainedClean = regexp.MustCompile(`drained: \d+ jobs done, 0 failed, 0 aborted`)

// term SIGTERMs the replica and requires a clean drain: exit 0 and no
// failed or aborted job.
func (d *daemon) term(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(t, 30*time.Second); err != nil {
		t.Errorf("exit after SIGTERM: %v\nstderr: %s", err, d.stderr.String())
	}
	if !drainedClean.MatchString(d.stderr.String()) {
		t.Errorf("drain log reports failed or aborted jobs:\n%s", d.stderr.String())
	}
	d.checkRaces(t)
}

// checkRaces fails the test if the exited replica's log holds a race
// report.
func (d *daemon) checkRaces(t *testing.T) {
	t.Helper()
	if log := d.stderr.String(); strings.Contains(log, "DATA RACE") {
		t.Errorf("race detector fired in replica %s:\n%s", d.addr, log)
	}
}
