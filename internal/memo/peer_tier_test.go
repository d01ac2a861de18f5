package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// stubPeers is a PeerSource over a fixed map, counting fetches.
type stubPeers struct {
	mu      sync.Mutex
	entries map[Key][]byte
	fetches atomic.Uint64
	stats   PeerStats
}

func (p *stubPeers) Fetch(key Key) ([]byte, bool) {
	p.fetches.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	payload, ok := p.entries[key]
	return payload, ok
}

func (p *stubPeers) PeerStats() PeerStats { return p.stats }

func computeCounting(n *atomic.Uint64, payload []byte) func() ([]byte, bool, error) {
	return func() ([]byte, bool, error) {
		n.Add(1)
		return payload, true, nil
	}
}

// A local miss with a peer that holds the entry is served as a
// PeerHit, written through to the local disk store, and never runs the
// compute.
func TestPeerTierHitWritesThrough(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("peer-tier-hit")
	want := []byte("peer payload bytes")
	c.SetPeers(&stubPeers{entries: map[Key][]byte{key: want}})

	var computes atomic.Uint64
	got, outcome, err := c.GetOrCompute(key, computeCounting(&computes, []byte("computed")))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != PeerHit || string(got) != string(want) {
		t.Fatalf("GetOrCompute = %q, %v; want peer payload, PeerHit", got, outcome)
	}
	if computes.Load() != 0 {
		t.Fatalf("compute ran %d times despite peer hit", computes.Load())
	}
	st := c.Stats()
	if st.PeerHits != 1 || st.PeerMisses != 0 || st.Misses != 0 {
		t.Fatalf("stats after peer hit: %+v", st)
	}
	if st.Requests() != 1 {
		t.Fatalf("Requests() = %d after one request", st.Requests())
	}
	// Write-through: the entry must now be on local disk, so a fresh
	// cache over the same dir (no peers) serves it as a DiskHit.
	c2, err := New(Options{Dir: c.Dir()})
	if err != nil {
		t.Fatal(err)
	}
	got2, outcome2, err := c2.GetOrCompute(key, computeCounting(&computes, []byte("computed")))
	if err != nil {
		t.Fatal(err)
	}
	if outcome2 != DiskHit || string(got2) != string(want) {
		t.Fatalf("after write-through: %q, %v; want peer payload, DiskHit", got2, outcome2)
	}
}

// A peer miss counts and falls through to computing exactly once.
func TestPeerTierMissFallsThrough(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	peers := &stubPeers{entries: map[Key][]byte{}}
	c.SetPeers(peers)
	key := KeyOf("peer-tier-miss")
	var computes atomic.Uint64
	got, outcome, err := c.GetOrCompute(key, computeCounting(&computes, []byte("computed")))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Miss || string(got) != "computed" || computes.Load() != 1 {
		t.Fatalf("peer miss: %q, %v, computes=%d", got, outcome, computes.Load())
	}
	st := c.Stats()
	if st.PeerMisses != 1 || st.PeerHits != 0 || st.Misses != 1 {
		t.Fatalf("stats after peer miss: %+v", st)
	}
	// The computed entry is stored locally; a repeat is a memory hit
	// and the peers are not consulted again.
	if _, outcome, _ := c.GetOrCompute(key, computeCounting(&computes, nil)); outcome != Hit {
		t.Fatalf("repeat after compute: %v", outcome)
	}
	if peers.fetches.Load() != 1 {
		t.Fatalf("peers consulted %d times; want 1", peers.fetches.Load())
	}
}

// Concurrent requests for one key issue a single peer fetch: the
// flight leader fans out, followers share its result. The stub fetch
// returns at once, so a waiter scheduled after the leader settled is a
// plain LRU hit instead of a merge; either way it never fetches.
func TestPeerTierSingleFlight(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("peer-tier-single-flight")
	peers := &stubPeers{entries: map[Key][]byte{key: []byte("shared")}}
	c.SetPeers(peers)

	const waiters = 16
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := c.GetOrCompute(key, func() ([]byte, bool, error) {
				return nil, false, fmt.Errorf("compute must not run")
			})
			if err != nil {
				errs <- err
				return
			}
			if string(got) != "shared" {
				errs <- fmt.Errorf("got %q", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := peers.fetches.Load(); n != 1 {
		t.Fatalf("peer fetches = %d; want 1 (single-flight leak)", n)
	}
	st := c.Stats()
	if st.PeerHits != 1 || st.SingleFlightMerges+st.Hits != waiters-1 {
		t.Fatalf("stats after concurrent peer hit: %+v", st)
	}
}

// LookupStored serves only what is locally resident (LRU or disk):
// it never consults peers, never computes, and never moves the
// hit/miss counters — it is the serving side of the peer protocol.
func TestLookupStoredLocalOnly(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	remote := KeyOf("only-on-the-peer")
	peers := &stubPeers{entries: map[Key][]byte{remote: []byte("remote")}}
	c.SetPeers(peers)

	if _, ok := c.LookupStored(remote); ok {
		t.Fatal("LookupStored must not consult peers")
	}
	if peers.fetches.Load() != 0 {
		t.Fatalf("LookupStored fetched from peers %d times", peers.fetches.Load())
	}

	local := KeyOf("stored-locally")
	var computes atomic.Uint64
	if _, _, err := c.GetOrCompute(local, computeCounting(&computes, []byte("local"))); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if got, ok := c.LookupStored(local); !ok || string(got) != "local" {
		t.Fatalf("LookupStored(local) = %q, %v", got, ok)
	}
	after := c.Stats()
	if after.Requests() != before.Requests() || after.Hits != before.Hits {
		t.Fatalf("LookupStored moved request counters: %+v -> %+v", before, after)
	}

	// Disk-resident but not memory-resident: a fresh cache over the
	// same dir still serves it, again without counting.
	c2, err := New(Options{Dir: c.Dir()})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.LookupStored(local); !ok || string(got) != "local" {
		t.Fatalf("LookupStored from disk = %q, %v", got, ok)
	}
	if st := c2.Stats(); st.Requests() != 0 {
		t.Fatalf("disk-backed LookupStored counted a request: %+v", st)
	}

	// Nil cache and zero key are safe misses.
	var nilCache *Cache
	if _, ok := nilCache.LookupStored(local); ok {
		t.Fatal("nil cache LookupStored hit")
	}
	if _, ok := c.LookupStored(Key{}); ok {
		t.Fatal("zero-key LookupStored hit")
	}
}

// SetPeers(nil) detaches the tier; a nil cache accepts SetPeers.
func TestSetPeersDetach(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("detach")
	peers := &stubPeers{entries: map[Key][]byte{key: []byte("remote")}}
	c.SetPeers(peers)
	c.SetPeers(nil)
	var computes atomic.Uint64
	_, outcome, err := c.GetOrCompute(key, computeCounting(&computes, []byte("computed")))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Miss || computes.Load() != 1 || peers.fetches.Load() != 0 {
		t.Fatalf("detached peers still consulted: %v computes=%d fetches=%d",
			outcome, computes.Load(), peers.fetches.Load())
	}
	var nilCache *Cache
	nilCache.SetPeers(peers) // must not panic
}

// The snapshot surfaces the PeerSource's own health counters.
func TestStatsMirrorsPeerStats(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPeers(&stubPeers{stats: PeerStats{FetchErrors: 3, HedgesWon: 2, BreakerTrips: 1}})
	st := c.Stats()
	if st.PeerFetchErrors != 3 || st.PeerHedgesWon != 2 || st.PeerBreakerTrips != 1 {
		t.Fatalf("peer health counters not mirrored: %+v", st)
	}
}
