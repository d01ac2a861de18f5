package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// statszStub serves a minimal /statsz document with a fixed
// queued+running load.
func statszStub(t *testing.T, queued, running int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/statsz" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, `{"jobs":{"queued":%d,"running":%d},"queue_depth":%d}`, queued, running, queued)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// waitFor polls cond every 5ms for up to ~10s of sleep time.
func waitFor(cond func() bool) bool {
	for try := 0; try < 2000; try++ {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// bareBalancer builds a leastLoaded with no poll goroutines, for
// deterministic picker-logic tests.
func bareBalancer(n int) *leastLoaded {
	bases := make([]string, n)
	for i := range bases {
		bases[i] = fmt.Sprintf("http://replica-%d", i)
	}
	return &leastLoaded{
		bases:    bases,
		inflight: make([]int, n),
		polled:   make([]int, n),
		dead:     make([]bool, n),
		stop:     make(chan struct{}),
	}
}

// The picker is an argmin over polled load plus local in-flight count.
func TestLeastLoadedPicksIdlestReplica(t *testing.T) {
	b := bareBalancer(3)
	b.polled = []int{5, 0, 9}
	for try := 0; try < 4; try++ {
		i := b.acquire(-1)
		if i != 1 {
			t.Fatalf("try %d: acquire = %d, want 1 (loads %v, inflight %v)", try, i, b.polled, b.inflight)
		}
		b.release(i, false)
	}
	// Held attempts count: in-flight jobs against replica 1 push its
	// score past replica 0's polled load of 5.
	b.mu.Lock()
	b.inflight = []int{0, 6, 0}
	b.mu.Unlock()
	if i := b.acquire(-1); i != 0 {
		t.Fatalf("acquire = %d, want 0 once replica 1 is loaded (inflight %v)", i, b.inflight)
	}
}

// Ties rotate: equally idle replicas share work instead of the first
// absorbing every burst.
func TestLeastLoadedRotatesTies(t *testing.T) {
	b := bareBalancer(3)
	seen := map[int]int{}
	for try := 0; try < 9; try++ {
		i := b.acquire(-1)
		seen[i]++
		b.release(i, false)
	}
	for i := 0; i < 3; i++ {
		if seen[i] == 0 {
			t.Fatalf("replica %d never picked across 9 tied acquires: %v", i, seen)
		}
	}
}

// A failed attempt penalises its replica and the immediate retry
// avoids it; a successful attempt clears the penalty.
func TestLeastLoadedAvoidsFailedReplica(t *testing.T) {
	b := bareBalancer(2)
	i := b.acquire(-1)
	b.release(i, true)
	other := 1 - i
	for try := 0; try < 4; try++ {
		j := b.acquire(i)
		if j != other {
			t.Fatalf("try %d: acquire(avoid=%d) = %d, want %d", try, i, j, other)
		}
		b.release(j, false)
	}
	// Even without avoid, the dead mark steers away.
	if j := b.acquire(-1); j != other {
		t.Fatalf("acquire(-1) = %d, want %d while %d is marked dead", j, other, i)
	}
	b.release(other, false)
	// A success against the marked replica clears it.
	b.inflight[i]++
	b.release(i, false)
	seen := map[int]bool{}
	for try := 0; try < 4; try++ {
		j := b.acquire(-1)
		seen[j] = true
		b.release(j, false)
	}
	if !seen[i] {
		t.Fatalf("replica %d still shunned after its dead mark cleared", i)
	}
}

// With every replica penalised the picker still answers: the replay
// must keep probing somebody rather than deadlock.
func TestLeastLoadedAllDeadStillPicks(t *testing.T) {
	b := bareBalancer(2)
	for i := 0; i < 2; i++ {
		b.inflight[i]++
		b.release(i, true)
	}
	if i := b.acquire(-1); i < 0 || i > 1 {
		t.Fatalf("acquire with all replicas dead = %d", i)
	}
}

// The background probes feed real /statsz answers into the gauges and
// steer picks toward the idle replica.
func TestLeastLoadedProbesSteerPicks(t *testing.T) {
	busy := statszStub(t, 7, 3)
	idle := statszStub(t, 0, 0)
	b := newLeastLoaded([]string{busy.URL, idle.URL})
	defer b.close()

	if !waitFor(func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.polled[0] == 10
	}) {
		t.Fatal("probe never delivered replica 0's load")
	}
	for try := 0; try < 4; try++ {
		i := b.acquire(-1)
		if i != 1 {
			t.Fatalf("try %d: acquire = %d, want the idle replica 1", try, i)
		}
		b.release(i, false)
	}
}

// A replica whose probe fails is penalised until a probe succeeds.
func TestLeastLoadedProbeFailureMarksDead(t *testing.T) {
	alive := statszStub(t, 0, 0)
	// A closed server: probes are refused, like a SIGKILLed replica.
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	goneURL := gone.URL
	gone.Close()

	b := newLeastLoaded([]string{goneURL, alive.URL})
	defer b.close()

	if !waitFor(func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.dead[0]
	}) {
		t.Fatal("probe failure never marked the dead replica")
	}
	for try := 0; try < 4; try++ {
		i := b.acquire(-1)
		if i != 1 {
			t.Fatalf("try %d: acquire = %d, want the live replica 1", try, i)
		}
		b.release(i, false)
	}
}
