package loadgen

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// statsPollInterval is the cadence of each replica's background
// /statsz probe; statsPollTimeout bounds one probe so a hung replica
// cannot stall its poll loop for longer than a couple of intervals.
const (
	statsPollInterval = 250 * time.Millisecond
	statsPollTimeout  = time.Second
)

// deadPenalty dominates any plausible queue depth, so a penalised
// replica is chosen only when every replica is penalised — the replay
// must keep probing somebody rather than deadlock.
const deadPenalty = 1 << 20

// leastLoaded is the fleet balancer. One poll goroutine per replica
// keeps a queued+running load gauge fresh from /statsz; acquire picks
// the argmin of polled load + local in-flight count + dead penalty,
// with a rotating tie-break so equally idle replicas share work instead
// of the first one absorbing every burst. A replica that failed its
// last exchange or probe carries the penalty until it answers again, so
// a dead replica costs at most the attempts in flight when it died.
type leastLoaded struct {
	bases []string
	// client is a dedicated probe client: probes must not compete with
	// players for pooled connections, and must stay outside any chaos
	// transport — an injected fault on a probe would penalise a healthy
	// replica.
	client *http.Client

	mu       sync.Mutex
	inflight []int  // jobs this replay currently has against each replica
	polled   []int  // last queued+running gauge from each replica's /statsz
	dead     []bool // last exchange or probe failed; cleared on any success
	cursor   int    // rotating tie-break start

	stop chan struct{}
	wg   sync.WaitGroup
}

func newLeastLoaded(bases []string) *leastLoaded {
	b := &leastLoaded{
		bases:    bases,
		client:   &http.Client{Timeout: statsPollTimeout},
		inflight: make([]int, len(bases)),
		polled:   make([]int, len(bases)),
		dead:     make([]bool, len(bases)),
		stop:     make(chan struct{}),
	}
	for i := range bases {
		b.wg.Add(1)
		go b.pollLoop(i)
	}
	return b
}

// acquire picks the replica for one attempt and counts it in flight.
// avoid names the replica whose attempt just failed (-1: none): the
// immediate retry goes elsewhere even before the failure's penalty is
// visible to other players.
func (b *leastLoaded) acquire(avoid int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.bases)
	start := b.cursor
	b.cursor = (b.cursor + 1) % n
	best, bestScore := -1, 0
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if i == avoid && n > 1 {
			continue
		}
		score := b.polled[i] + b.inflight[i]
		if b.dead[i] {
			score += deadPenalty
		}
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	b.inflight[best]++
	return best
}

// release returns an acquire. A failed attempt marks the replica dead
// until a probe or attempt succeeds against it; a successful attempt
// clears the mark immediately (probes only run every interval).
func (b *leastLoaded) release(i int, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inflight[i]--
	b.dead[i] = failed
}

// close stops the poll goroutines and releases probe connections.
func (b *leastLoaded) close() {
	close(b.stop)
	b.wg.Wait()
	b.client.CloseIdleConnections()
}

// pollLoop keeps replica i's load gauge fresh: one probe immediately
// (so the first picks already see real queue depths on a warm fleet),
// then one per interval until close.
func (b *leastLoaded) pollLoop(i int) {
	defer b.wg.Done()
	ticker := time.NewTicker(statsPollInterval)
	defer ticker.Stop()
	for {
		b.pollOnce(i)
		select {
		case <-b.stop:
			return
		case <-ticker.C:
		}
	}
}

// pollOnce probes replica i's /statsz and folds the answer into the
// gauges. Any failure — dial, timeout, non-200, undecodable body —
// penalises the replica; the next successful probe clears it.
func (b *leastLoaded) pollOnce(i int) {
	// The poller is a detached background worker owned by the balancer
	// (stopped via b.stop), not part of any request's call chain.
	//lint:ignore ctxflow detached health poller tied to b.stop, not a request; each probe is bounded by statsPollTimeout
	ctx, cancel := context.WithTimeout(context.Background(), statsPollTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.bases[i]+"/statsz", nil)
	if err != nil {
		b.setDead(i)
		return
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.setDead(i)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		b.setDead(i)
		return
	}
	// Decode only the load gauges from the stats document; unknown
	// members are skipped, so the probe survives stats growth. The
	// queued count includes jobs still holding an accept-queue
	// reservation, so queued+running is the whole backlog.
	var st struct {
		Jobs struct {
			Queued  int `json:"queued"`
			Running int `json:"running"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		b.setDead(i)
		return
	}
	b.mu.Lock()
	b.polled[i] = st.Jobs.Queued + st.Jobs.Running
	b.dead[i] = false
	b.mu.Unlock()
}

func (b *leastLoaded) setDead(i int) {
	b.mu.Lock()
	b.dead[i] = true
	b.mu.Unlock()
}
