// Package peer is the network tier of the measurement cache: a client
// that fetches content-addressed cache entries from sibling replicas
// before the cache falls back to measuring. It implements
// memo.PeerSource, so it slots between the local layers (LRU + disk)
// and the compute path without memo learning anything about HTTP.
//
// The wire protocol is deliberately the disk format: a replica serves
// GET /v1/peer/blob/{digest} with the exact `memo1 <sha256> <len>`
// framed bytes its own store holds, and the fetching side re-validates
// the framing and payload checksum on receipt (memo.ParseEntry) before
// anything touches its cache. Entries are never re-encoded in flight,
// so a relay chain of any length still serves byte-for-byte what the
// original measurement produced.
//
// Fetch policy: the starting peer is chosen deterministically from the
// digest (so a fleet spreads fetch load instead of hammering the first
// peer in everyone's -peers list), a hedge request to the next healthy
// peer launches if the first is slow, the first valid response wins
// and cancels the losers, and a failed attempt fails over to the next
// peer immediately. Each peer is guarded by its own consecutive-failure
// circuit breaker (the same operation-count breaker that guards the
// disk store), so a dead replica costs a handful of timeouts and is
// then skipped until its cooldown probe succeeds.
package peer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"additivity/internal/memo"
)

// Defaults for Options zero values.
const (
	// DefaultTimeout bounds one fetch attempt against one peer. It is
	// generous relative to a LAN round trip because the alternative to
	// a slow peer answer is usually a far slower measurement.
	DefaultTimeout = 2 * time.Second
	// DefaultHedgeDelay is how long the first-choice peer gets before a
	// backup request launches against the next healthy peer.
	DefaultHedgeDelay = 25 * time.Millisecond
	// DefaultMaxBlobBytes caps an accepted response body. Cache entries
	// are serialized measurement tables (KBs); anything near the cap is
	// a broken or hostile peer, not a cache entry.
	DefaultMaxBlobBytes = 64 << 20
)

// ErrBlobTooLarge marks a peer response body over the size cap.
var ErrBlobTooLarge = errors.New("peer: blob exceeds size limit")

// Options configures a Client.
type Options struct {
	// Peers are the sibling replicas' base URLs (e.g.
	// "http://10.0.0.2:8080"). Trailing slashes are stripped; empty
	// elements are dropped.
	Peers []string
	// Timeout bounds one attempt against one peer (0: DefaultTimeout).
	Timeout time.Duration
	// HedgeDelay is the slow-peer budget before a backup request
	// launches (0: DefaultHedgeDelay; negative: hedging disabled).
	HedgeDelay time.Duration
	// MaxBlobBytes caps an accepted response body
	// (0: DefaultMaxBlobBytes).
	MaxBlobBytes int64
	// Client is the HTTP client to fetch with (nil: a dedicated client;
	// per-attempt deadlines come from request contexts either way).
	Client *http.Client
}

// remote is one configured peer and its health state.
type remote struct {
	base string
	brk  *memo.Breaker
}

// Client fetches cache entries from sibling replicas. It is safe for
// concurrent use and implements memo.PeerSource.
type Client struct {
	remotes    []*remote
	timeout    time.Duration
	hedgeDelay time.Duration
	maxBlob    int64
	http       *http.Client

	fetchErrors atomic.Uint64
	hedgesWon   atomic.Uint64
}

// NewClient builds a peer client. At least one usable peer URL is
// required — a daemon with no -peers simply doesn't construct one.
func NewClient(opts Options) (*Client, error) {
	c := &Client{
		timeout:    opts.Timeout,
		hedgeDelay: opts.HedgeDelay,
		maxBlob:    opts.MaxBlobBytes,
		http:       opts.Client,
	}
	if c.timeout <= 0 {
		c.timeout = DefaultTimeout
	}
	if c.hedgeDelay == 0 {
		c.hedgeDelay = DefaultHedgeDelay
	}
	if c.maxBlob <= 0 {
		c.maxBlob = DefaultMaxBlobBytes
	}
	if c.http == nil {
		c.http = &http.Client{}
	}
	for _, p := range opts.Peers {
		base := strings.TrimRight(strings.TrimSpace(p), "/")
		if base == "" {
			continue
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c.remotes = append(c.remotes, &remote{base: base, brk: memo.NewBreaker()})
	}
	if len(c.remotes) == 0 {
		return nil, errors.New("peer: no peer URLs configured")
	}
	return c, nil
}

// NumPeers reports how many peers are configured.
func (c *Client) NumPeers() int { return len(c.remotes) }

// PeerStats returns the client's health counters (memo.PeerSource).
// BreakerTrips sums closed→open transitions across every per-peer
// breaker.
func (c *Client) PeerStats() memo.PeerStats {
	var trips uint64
	for _, r := range c.remotes {
		_, opens, _ := r.brk.Snapshot()
		trips += opens
	}
	return memo.PeerStats{
		FetchErrors:  c.fetchErrors.Load(),
		HedgesWon:    c.hedgesWon.Load(),
		BreakerTrips: trips,
	}
}

// startIndex picks the first peer to try for a digest: an FNV-1a fold
// of the digest modulo the peer count. Deterministic per key, uniform
// across keys, so a fleet's fetch load spreads instead of piling onto
// everyone's first -peers entry.
func (c *Client) startIndex(key memo.Key) int {
	h := key.Hex()
	s := uint32(2166136261)
	for i := 0; i < len(h); i++ {
		s = (s ^ uint32(h[i])) * 16777619
	}
	return int(s % uint32(len(c.remotes)))
}

// Fetch asks the peers for the entry stored under key, returning its
// verified payload or a miss (memo.PeerSource). A miss is any of: all
// peers answered 404, every attempt failed or timed out, or every
// breaker was open. Fetch never blocks longer than roughly one
// per-peer timeout per eligible peer.
func (c *Client) Fetch(key memo.Key) ([]byte, bool) {
	if key.IsZero() {
		return nil, false
	}
	// The fan-out runs inside the flight leader and serves every local
	// waiter, so no single requester's cancellation may abort it; its
	// lifetime is bounded by the per-attempt peer timeouts instead.
	//lint:ignore serving single-flight leader work shared by all waiters; detached by design, bounded by per-attempt timeouts
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // first valid response wins; losers are cancelled here

	type attempt struct {
		payload []byte
		ok      bool
		hedge   bool
	}
	results := make(chan attempt, len(c.remotes))
	start := c.startIndex(key)
	next, inflight := 0, 0
	// launch starts a request against the next peer whose breaker
	// admits it; hedge marks timer-launched backups (as opposed to the
	// primary attempt and post-failure failovers).
	launch := func(hedge bool) {
		for next < len(c.remotes) {
			r := c.remotes[(start+next)%len(c.remotes)]
			next++
			if !r.brk.Allow() {
				continue
			}
			inflight++
			go func() {
				payload, ok := c.fetchOne(ctx, r, key)
				results <- attempt{payload: payload, ok: ok, hedge: hedge}
			}()
			return
		}
	}
	launch(false)
	if inflight == 0 {
		return nil, false // every peer's breaker is open
	}
	// The hedge timer is the peer tier's wall-clock dependence (with
	// the per-attempt timeouts): it schedules operational backup
	// requests and can never influence result bytes — whatever peer
	// answers, the payload is checksum-verified against the same
	// content digest.
	//lint:ignore determinism hedge scheduling is operational wall-clock outside every result path; fetched bytes are verified content-addressed entries
	hedge := time.NewTimer(c.hedgeDelayOrNever())
	defer hedge.Stop()
	for {
		select {
		case a := <-results:
			inflight--
			if a.ok {
				if a.hedge {
					c.hedgesWon.Add(1)
				}
				return a.payload, true
			}
			if inflight == 0 {
				// Fail over to the next peer immediately; when none are
				// left the fetch is a miss.
				launch(false)
				if inflight == 0 {
					return nil, false
				}
			}
		case <-hedge.C:
			launch(true)
		}
	}
}

// hedgeDelayOrNever maps a negative HedgeDelay (hedging disabled) to a
// timer that never fires within a fetch's lifetime.
func (c *Client) hedgeDelayOrNever() time.Duration {
	if c.hedgeDelay < 0 {
		return c.timeout * time.Duration(len(c.remotes)+1)
	}
	return c.hedgeDelay
}

// fetchOne runs one attempt against one peer and folds the outcome
// into that peer's breaker: a verified 200 is a success, a 404 is
// neutral (the peer is healthy, it just doesn't hold the entry), and
// everything else — timeout, transport error, unexpected status,
// malformed or checksum-mismatched body — is a failure. A parent
// cancellation (another peer already won) is no signal at all.
func (c *Client) fetchOne(ctx context.Context, r *remote, key memo.Key) ([]byte, bool) {
	reqCtx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, r.base+"/v1/peer/blob/"+key.Hex(), nil)
	if err != nil {
		c.fail(r)
		return nil, false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false
		}
		c.fail(r)
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		raw, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBlob+1))
		if err != nil {
			if ctx.Err() != nil {
				return nil, false
			}
			c.fail(r)
			return nil, false
		}
		payload, err := ParseBlob(raw, c.maxBlob)
		if err != nil {
			c.fail(r)
			return nil, false
		}
		r.brk.Record(false)
		return payload, true
	case http.StatusNotFound:
		drain(resp.Body)
		r.brk.RecordNeutral()
		return nil, false
	default:
		drain(resp.Body)
		c.fail(r)
		return nil, false
	}
}

// fail counts one per-peer attempt failure and feeds the breaker.
func (c *Client) fail(r *remote) {
	c.fetchErrors.Add(1)
	r.brk.Record(true)
}

// drain discards a bounded remainder of an error response body so the
// connection can be reused.
func drain(body io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 4096))
}

// ParseBlob validates one peer response body: the size cap, then the
// full entry framing — magic, declared length, and the payload's
// sha256 against the header digest (memo.ParseEntry). It returns the
// verified payload, or an error wrapping ErrBlobTooLarge /
// memo.ErrCorruptEntry. Nothing a peer sends is cached or served until
// it passes here.
func ParseBlob(raw []byte, maxBytes int64) ([]byte, error) {
	if maxBytes > 0 && int64(len(raw)) > maxBytes {
		return nil, fmt.Errorf("peer: %d-byte blob over %d-byte cap: %w", len(raw), maxBytes, ErrBlobTooLarge)
	}
	payload, err := memo.ParseEntry(raw)
	if err != nil {
		return nil, fmt.Errorf("peer: blob failed entry validation: %w", err)
	}
	return payload, nil
}
