package memo

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustCache(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func constPayload(p []byte) func() ([]byte, bool, error) {
	return func() ([]byte, bool, error) { return p, true, nil }
}

func TestKeyBuilderCanonical(t *testing.T) {
	k1 := NewKeyBuilder("s").Field("a", "x").Int("n", 7).Key()
	k2 := NewKeyBuilder("s").Field("a", "x").Int("n", 7).Key()
	if k1 != k2 {
		t.Fatal("identical field sequences must digest identically")
	}
	// Field boundaries must matter: ("ab","c") vs ("a","bc").
	if (NewKeyBuilder("s").Field("ab", "c").Key()) == (NewKeyBuilder("s").Field("a", "bc").Key()) {
		t.Fatal("field framing failed: boundary shift collided")
	}
	// Order must matter.
	if (NewKeyBuilder("s").Field("a", "1").Field("b", "2").Key()) ==
		(NewKeyBuilder("s").Field("b", "2").Field("a", "1").Key()) {
		t.Fatal("field order must be part of the identity")
	}
	// Schema must matter.
	if (NewKeyBuilder("v1").Field("a", "1").Key()) == (NewKeyBuilder("v2").Field("a", "1").Key()) {
		t.Fatal("schema must be part of the identity")
	}
	// Floats: shortest round-trip form distinguishes every distinct bit
	// pattern and matches for equal values.
	if (NewKeyBuilder("s").Float("f", 0.1).Key()) != (NewKeyBuilder("s").Float("f", 0.1).Key()) {
		t.Fatal("equal floats must digest identically")
	}
	if (NewKeyBuilder("s").Float("f", 0.1).Key()) == (NewKeyBuilder("s").Float("f", 0.2).Key()) {
		t.Fatal("distinct floats must digest distinctly")
	}
	if k1.IsZero() {
		t.Fatal("built key must not be zero")
	}
	if (Key{}).Hex() != "0000000000000000000000000000000000000000000000000000000000000000" {
		t.Fatal("zero key hex")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := mustCache(t, Options{})
	k := KeyOf("unit-1")
	calls := 0
	compute := func() ([]byte, bool, error) { calls++; return []byte("v1"), true, nil }

	p, out, err := c.GetOrCompute(k, compute)
	if err != nil || out != Miss || string(p) != "v1" {
		t.Fatalf("first get: %q %v %v", p, out, err)
	}
	p, out, err = c.GetOrCompute(k, compute)
	if err != nil || out != Hit || string(p) != "v1" {
		t.Fatalf("second get: %q %v %v", p, out, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Requests() != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNilCachePassThrough(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 2; i++ {
		p, out, err := c.GetOrCompute(KeyOf("k"), func() ([]byte, bool, error) {
			calls++
			return []byte("v"), true, nil
		})
		if err != nil || out != Miss || string(p) != "v" {
			t.Fatalf("nil cache get: %q %v %v", p, out, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache must always compute, got %d calls", calls)
	}
	if c.Len() != 0 || c.Stats() != (StatsSnapshot{}) || c.Dir() != "" {
		t.Fatal("nil cache accessors must be zero-valued")
	}
}

func TestZeroKeyRejected(t *testing.T) {
	c := mustCache(t, Options{})
	if _, _, err := c.GetOrCompute(Key{}, constPayload([]byte("v"))); err == nil {
		t.Fatal("zero key must be rejected")
	}
}

func TestUncacheableNeverRetained(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, Options{Dir: dir})
	k := KeyOf("degraded-unit")
	calls := 0
	compute := func() ([]byte, bool, error) { calls++; return []byte("degraded"), false, nil }

	for i := 0; i < 3; i++ {
		p, out, err := c.GetOrCompute(k, compute)
		if err != nil || out != Miss || string(p) != "degraded" {
			t.Fatalf("get %d: %q %v %v", i, p, out, err)
		}
	}
	if calls != 3 {
		t.Fatalf("uncacheable unit must recompute every time, got %d calls", calls)
	}
	if c.Len() != 0 {
		t.Fatal("uncacheable payload retained in memory")
	}
	for _, d := range []string{dir, filepath.Join(dir, coldDirName)} {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".memo") {
				t.Fatalf("uncacheable payload written to disk: %v", e.Name())
			}
		}
	}
	if st := c.Stats(); st.Uncacheable != 3 || st.Stores != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	c := mustCache(t, Options{})
	k := KeyOf("err-unit")
	calls := 0
	_, _, err := c.GetOrCompute(k, func() ([]byte, bool, error) {
		calls++
		return nil, true, fmt.Errorf("boom %d", calls)
	})
	if err == nil || err.Error() != "boom 1" {
		t.Fatalf("want boom 1, got %v", err)
	}
	// The error must not be cached: the next request recomputes.
	p, out, err := c.GetOrCompute(k, func() ([]byte, bool, error) {
		calls++
		return []byte("ok"), true, nil
	})
	if err != nil || out != Miss || string(p) != "ok" || calls != 2 {
		t.Fatalf("retry after error: %q %v %v calls=%d", p, out, err, calls)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustCache(t, Options{MaxEntries: 4, Shards: 1})
	for i := 0; i < 8; i++ {
		k := KeyOf(fmt.Sprintf("unit-%d", i))
		if _, _, err := c.GetOrCompute(k, constPayload([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	// Oldest entries must have been evicted: unit-0 recomputes...
	recomputed := false
	_, out, err := c.GetOrCompute(KeyOf("unit-0"), func() ([]byte, bool, error) {
		recomputed = true
		return []byte{0}, true, nil
	})
	if err != nil || out != Miss || !recomputed {
		t.Fatalf("evicted entry must recompute: %v %v", out, err)
	}
	// ...while the most recent survives.
	_, out, err = c.GetOrCompute(KeyOf("unit-7"), constPayload([]byte{7}))
	if err != nil || out != Hit {
		t.Fatalf("recent entry must hit: %v %v", out, err)
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := mustCache(t, Options{MaxEntries: 2, Shards: 1})
	a, b, d := KeyOf("a"), KeyOf("b"), KeyOf("d")
	c.GetOrCompute(a, constPayload([]byte("a")))
	c.GetOrCompute(b, constPayload([]byte("b")))
	c.GetOrCompute(a, constPayload([]byte("a"))) // touch a: b is now coldest
	c.GetOrCompute(d, constPayload([]byte("d"))) // evicts b
	if _, out, _ := c.GetOrCompute(a, constPayload([]byte("a"))); out != Hit {
		t.Fatal("touched entry must survive eviction")
	}
	if _, out, _ := c.GetOrCompute(b, constPayload([]byte("b"))); out != Miss {
		t.Fatal("untouched entry must have been evicted")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("persistent-unit")
	payload := []byte(`{"samples":[1,2,3]}`)

	c1 := mustCache(t, Options{Dir: dir})
	if _, out, err := c1.GetOrCompute(k, constPayload(payload)); err != nil || out != Miss {
		t.Fatalf("cold: %v %v", out, err)
	}
	if st := c1.Stats(); st.Stores != 1 {
		t.Fatalf("stores: %+v", st)
	}

	// A fresh cache over the same directory warm-starts from disk.
	c2 := mustCache(t, Options{Dir: dir})
	p, out, err := c2.GetOrCompute(k, func() ([]byte, bool, error) {
		t.Fatal("warm start must not recompute")
		return nil, false, nil
	})
	if err != nil || out != DiskHit || !bytes.Equal(p, payload) {
		t.Fatalf("warm: %q %v %v", p, out, err)
	}
	// Promoted to memory: the next request is an in-process hit.
	if _, out, _ := c2.GetOrCompute(k, constPayload(payload)); out != Hit {
		t.Fatalf("promotion: want Hit, got %v", out)
	}
}

func TestDiskStoreIdempotent(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("unit")
	if dup, err := s.Store(k, []byte("v")); err != nil || dup {
		t.Fatalf("first store: dup=%v err=%v", dup, err)
	}
	// Second store is a no-op; the original entry wins and the store
	// reports the duplicate.
	if dup, err := s.Store(k, []byte("other")); err != nil || !dup {
		t.Fatalf("second store: dup=%v err=%v", dup, err)
	}
	p, ok, err := s.Load(k)
	if err != nil || !ok || string(p) != "v" {
		t.Fatalf("load: %q %v %v", p, ok, err)
	}
}

func TestDiskCorruptionDetected(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)-3] },
		"flipped-byte":  func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"no-header":     func([]byte) []byte { return []byte("garbage with no newline") },
		"bad-magic":     func(b []byte) []byte { copy(b, "nope1"); return b },
		"empty-file":    func([]byte) []byte { return nil },
		"short-header":  func([]byte) []byte { return []byte("memo1 deadbeef\npayload") },
		"bad-length":    func([]byte) []byte { return []byte("memo1 " + KeyOf("x").Hex() + " nope\npayload") },
		"extra-payload": func(b []byte) []byte { return append(b, "extra"...) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := mustCache(t, Options{Dir: dir})
			k := KeyOf("unit-" + name)
			if _, _, err := c.GetOrCompute(k, constPayload([]byte("good payload"))); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, k.Hex()+".memo")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh cache must detect the corruption and re-measure.
			c2 := mustCache(t, Options{Dir: dir})
			recomputed := false
			p, out, err := c2.GetOrCompute(k, func() ([]byte, bool, error) {
				recomputed = true
				return []byte("good payload"), true, nil
			})
			if err != nil || out != Miss || !recomputed || string(p) != "good payload" {
				t.Fatalf("corrupt entry served: %q %v %v recomputed=%v", p, out, err, recomputed)
			}
			if st := c2.Stats(); st.CorruptEntries != 1 {
				t.Fatalf("corrupt counter: %+v", st)
			}
			// The re-measured value must have been stored cleanly.
			c3 := mustCache(t, Options{Dir: dir})
			if _, out, err := c3.GetOrCompute(k, constPayload([]byte("good payload"))); err != nil || out != DiskHit {
				t.Fatalf("re-stored entry not served: %v %v", out, err)
			}
		})
	}
}

func TestSingleFlight(t *testing.T) {
	c := mustCache(t, Options{})
	const goroutines = 32
	k := KeyOf("contended-unit")

	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]Outcome, goroutines)
	payloads := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payloads[i], outcomes[i], errs[i] = c.GetOrCompute(k, func() ([]byte, bool, error) {
				calls.Add(1)
				<-release // hold the flight open so followers pile up
				return []byte("shared"), true, nil
			})
		}(i)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times under contention, want exactly 1", got)
	}
	misses, merged := 0, 0
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil || string(payloads[i]) != "shared" {
			t.Fatalf("goroutine %d: %q %v", i, payloads[i], errs[i])
		}
		switch outcomes[i] {
		case Miss:
			misses++
		case Merged, Hit:
			merged++
		default:
			t.Fatalf("goroutine %d: unexpected outcome %v", i, outcomes[i])
		}
	}
	if misses != 1 {
		t.Fatalf("want exactly 1 leader, got %d", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.SingleFlightMerges+st.Hits != goroutines-1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSingleFlightErrorSharedNotCached(t *testing.T) {
	c := mustCache(t, Options{})
	k := KeyOf("failing-unit")
	const followers = 7
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	compute := func() ([]byte, bool, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release // hold the first flight open so followers can queue
		}
		return nil, true, fmt.Errorf("gather failed")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	leaderErr := error(nil)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.GetOrCompute(k, compute)
	}()
	<-started // the flight is now registered and computing

	outcomes := make([]Outcome, followers)
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outcomes[i], errs[i] = c.GetOrCompute(k, compute)
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let followers reach the inflight check
	close(release)
	wg.Wait()

	if leaderErr == nil {
		t.Fatal("leader must see the compute error")
	}
	leaders := int64(1)
	merged := 0
	for i := 0; i < followers; i++ {
		if errs[i] == nil {
			t.Fatalf("goroutine %d: error must propagate", i)
		}
		switch outcomes[i] {
		case Merged:
			merged++
		case Miss:
			leaders++ // arrived after the failed flight was torn down
		default:
			t.Fatalf("goroutine %d: unexpected outcome %v", i, outcomes[i])
		}
	}
	// Errors are shared within a flight but never cached: every compute
	// corresponds to exactly one flight leader.
	if calls.Load() != leaders {
		t.Fatalf("computes = %d, leaders = %d — failed flight result was cached", calls.Load(), leaders)
	}
	if merged == 0 {
		t.Fatal("no follower merged into the held-open flight")
	}
	// A later request gets a fresh flight (errors are not cached).
	p, out, err := c.GetOrCompute(k, constPayload([]byte("recovered")))
	if err != nil || out != Miss || string(p) != "recovered" {
		t.Fatalf("post-error: %q %v %v", p, out, err)
	}
}

func TestSingleFlightManyKeysConcurrent(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, Options{Dir: dir, Shards: 4})
	const keys = 16
	const goroutinesPerKey = 8
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutinesPerKey; g++ {
		for i := 0; i < keys; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k := KeyOf(fmt.Sprintf("multi-%d", i))
				want := []byte(fmt.Sprintf("payload-%d", i))
				p, _, err := c.GetOrCompute(k, func() ([]byte, bool, error) {
					computes[i].Add(1)
					return want, true, nil
				})
				if err != nil || !bytes.Equal(p, want) {
					t.Errorf("key %d: %q %v", i, p, err)
				}
			}(i)
		}
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		if got := computes[i].Load(); got != 1 {
			t.Errorf("key %d computed %d times, want 1", i, got)
		}
	}
	if st := c.Stats(); st.Requests() != keys*goroutinesPerKey || st.Stores != keys {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPlanDedup(t *testing.T) {
	p := NewPlan()
	// Naive plan: 3 compounds × (2 bases + itself); bases shared.
	kA, kB, kC := KeyOf("base/A"), KeyOf("base/B"), KeyOf("base/C")
	refs := []struct {
		k     Key
		label string
	}{
		{kA, "base/A"}, {kB, "base/B"}, {KeyOf("compound/0"), "compound/0/AB"},
		{kA, "dup"}, {kC, "base/C"}, {KeyOf("compound/1"), "compound/1/AC"},
		{kB, "dup"}, {kC, "dup"}, {KeyOf("compound/2"), "compound/2/BC"},
	}
	firsts := 0
	for _, r := range refs {
		if _, first := p.Add(r.k, r.label); first {
			firsts++
		}
	}
	if p.NaiveRefs() != 9 {
		t.Fatalf("NaiveRefs = %d, want 9", p.NaiveRefs())
	}
	if p.UniqueUnits() != 6 || firsts != 6 {
		t.Fatalf("UniqueUnits = %d firsts = %d, want 6", p.UniqueUnits(), firsts)
	}
	units := p.Units()
	// First-reference order and labels preserved.
	if units[0].Label != "base/A" || units[0].Refs != 2 {
		t.Fatalf("unit 0: %+v", units[0])
	}
	if units[1].Label != "base/B" || units[1].Refs != 2 {
		t.Fatalf("unit 1: %+v", units[1])
	}
	if units[3].Label != "base/C" || units[3].Refs != 2 {
		t.Fatalf("unit 3: %+v", units[3])
	}
	// Duplicate reference resolves to the original position.
	if pos, first := p.Add(kA, "late"); pos != 0 || first {
		t.Fatalf("re-add: pos=%d first=%v", pos, first)
	}
}

func TestStatsAdd(t *testing.T) {
	a := StatsSnapshot{Hits: 1, DiskHits: 2, Misses: 3, SingleFlightMerges: 4, Stores: 5, CorruptEntries: 6, Uncacheable: 7}
	b := StatsSnapshot{Hits: 10, DiskHits: 20, Misses: 30, SingleFlightMerges: 40, Stores: 50, CorruptEntries: 60, Uncacheable: 70}
	got := a.Add(b)
	want := StatsSnapshot{Hits: 11, DiskHits: 22, Misses: 33, SingleFlightMerges: 44, Stores: 55, CorruptEntries: 66, Uncacheable: 77}
	if got != want {
		t.Fatalf("Add: %+v", got)
	}
	if got.Requests() != 11+22+33+44 {
		t.Fatalf("Requests: %d", got.Requests())
	}
}

func TestOutcomeString(t *testing.T) {
	for out, want := range map[Outcome]string{Miss: "miss", Hit: "hit", DiskHit: "disk-hit", Merged: "merged", Outcome(99): "unknown"} {
		if out.String() != want {
			t.Fatalf("%d.String() = %q, want %q", out, out.String(), want)
		}
	}
}

// racingPublisher is a PeerSource that misses, but stores the entry on
// the shared disk as it does: another replica finishing the same
// measurement between this cache's disk probe and its lease acquire.
type racingPublisher struct {
	disk    *DiskStore
	payload []byte
}

func (p racingPublisher) Fetch(key Key) ([]byte, bool) {
	_, _ = p.disk.Store(key, p.payload)
	return nil, false
}

func (racingPublisher) PeerStats() PeerStats { return PeerStats{} }

// Every GetOrCompute path and a Lookup hit move exactly the outcome
// counter their result maps to, by exactly one, and the guards and a
// Lookup miss move none — so Requests() is the number of counted calls.
// Setups stage state directly and count nothing themselves.
func TestOutcomeCounts(t *testing.T) {
	const none Outcome = -1
	payload := []byte("payload")
	boom := errors.New("boom")
	compute := func(p []byte, cacheable bool, err error) func(*Cache, Key) Outcome {
		return func(c *Cache, k Key) Outcome {
			_, out, _ := c.GetOrCompute(k, func() ([]byte, bool, error) { return p, cacheable, err })
			return out
		}
	}
	served := compute(nil, false, errors.New("computed an entry that was already served"))
	retained := func(c *Cache, k Key) { c.retain(k, c.shardOf(k), payload) }
	lookup := func(c *Cache, k Key) Outcome {
		if _, ok := c.Lookup(k); ok {
			return Hit
		}
		return none
	}
	// inFlight registers a flight for k that another caller leads and
	// has already settled; it stays registered, so the call merges.
	inFlight := func(p []byte, err error) func(*Cache, Key) {
		return func(c *Cache, k Key) {
			fl := &flight{done: make(chan struct{}), payload: p, err: err}
			close(fl.done)
			s := c.shardOf(k)
			s.mu.Lock()
			s.inflight[k] = fl
			s.mu.Unlock()
		}
	}
	cases := []struct {
		name  string
		setup func(*Cache, Key)
		call  func(*Cache, Key) Outcome
		want  Outcome // none: the call must move no counter
		// leaseMerges is 1 where the entry must arrive through the
		// lease re-probe rather than the first disk probe.
		leaseMerges uint64
	}{
		{name: "lru hit", setup: retained, call: served, want: Hit},
		{name: "disk hit", setup: func(c *Cache, k Key) { _, _ = c.disk.Store(k, payload) }, call: served, want: DiskHit},
		{name: "lease-published disk hit", setup: func(c *Cache, k Key) {
			c.SetPeers(racingPublisher{disk: c.disk, payload: payload})
		}, call: served, want: DiskHit, leaseMerges: 1},
		{name: "peer hit", setup: func(c *Cache, k Key) {
			c.SetPeers(&stubPeers{entries: map[Key][]byte{k: payload}})
		}, call: served, want: PeerHit},
		{name: "merge", setup: inFlight(payload, nil), call: served, want: Merged},
		{name: "merge shared error", setup: inFlight(nil, boom), call: served, want: Merged},
		{name: "miss", call: compute(payload, true, nil), want: Miss},
		{name: "compute error", call: compute(nil, true, boom), want: Miss},
		{name: "uncacheable", call: compute(payload, false, nil), want: Miss},
		{name: "lookup hit", setup: retained, call: lookup, want: Hit},
		{name: "lookup miss", call: lookup, want: none},
		{name: "zero key", call: func(c *Cache, _ Key) Outcome {
			if _, _, err := c.GetOrCompute(Key{}, constPayload(payload)); err == nil {
				return Miss
			}
			return none
		}, want: none},
		{name: "nil cache", call: func(*Cache, Key) Outcome {
			var nilCache *Cache
			_, _, _ = nilCache.GetOrCompute(KeyOf("nil"), constPayload(payload))
			return none
		}, want: none},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCache(t, Options{Dir: t.TempDir()})
			k := KeyOf("outcome/" + tc.name)
			if tc.setup != nil {
				tc.setup(c, k)
			}
			if got := tc.call(c, k); got != tc.want {
				t.Fatalf("outcome = %v, want %v", got, tc.want)
			}
			st := c.Stats()
			got := [numOutcomes]uint64{
				Miss: st.Misses, Hit: st.Hits, DiskHit: st.DiskHits,
				Merged: st.SingleFlightMerges, PeerHit: st.PeerHits,
			}
			var want [numOutcomes]uint64
			calls := uint64(0)
			if tc.want != none {
				want[tc.want], calls = 1, 1
			}
			if got != want {
				t.Errorf("outcome counters [miss hit disk-hit merged peer-hit] = %v, want %v", got, want)
			}
			if st.Requests() != calls {
				t.Errorf("Requests() = %d, want %d", st.Requests(), calls)
			}
			if st.LeaseMerges != tc.leaseMerges {
				t.Errorf("lease merges = %d, want %d", st.LeaseMerges, tc.leaseMerges)
			}
		})
	}
}
