package memo

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// leaseMagic versions the on-disk lease format. A lease file is
//
//	memo-lease1 <pid> <owner-hex> <seq>\n
//
// published next to the entry it guards as <digest>.lease. The pid and
// owner identify the holder; seq is a heartbeat counter the holder
// bumps while its compute is in flight, so a follower can tell a live
// (but slow) holder from a dead one without trusting wall clocks.
const leaseMagic = "memo-lease1"

// errBadLease marks a lease file whose contents do not parse. An
// unparseable lease is treated like a stalled one: followers give it
// the full stall grace before taking over, in case they raced a
// partially visible write.
var errBadLease = errors.New("memo: malformed lease file")

// Lease tuning defaults. Poll counts, not wall-clock deadlines, drive
// staleness: a follower polls every leasePollEvery and declares a
// holder stale after leaseStallPolls polls without a heartbeat
// advance. A SIGKILLed holder is detected immediately through its dead
// pid; the stall budget only matters for hung-but-alive holders.
const (
	leaseHeartbeatEvery = 100 * time.Millisecond
	leasePollEvery      = 10 * time.Millisecond
	leaseStallPolls     = 500  // ~5s of unchanged heartbeat before takeover
	leaseMaxPolls       = 9000 // ~90s wait budget before computing anyway
	// leaseNoFilePolls bounds consecutive polls that observe no lease
	// file yet also fail to acquire one. A lost acquire race resolves on
	// the next poll (the winner's lease becomes readable); only a sick
	// directory (deleted, unwritable) sustains the combination, and then
	// waiting out the full budget would stall every request — bypass.
	leaseNoFilePolls = 10
)

// leaseManager implements cross-process single-flight over a shared
// cache directory. At most one process at a time holds the lease for a
// digest; followers wait for the holder to publish the entry, and take
// over deterministically (rename wins exactly once) when the holder
// dies mid-measure. Liveness assumes the replicas share a host (pid
// probes) — cross-host deployments fall back to the heartbeat stall
// budget.
type leaseManager struct {
	dir   string
	pid   int
	owner string

	// alive reports whether a holder pid is still running. Swapped in
	// tests to simulate a holder killed at an arbitrary protocol step.
	alive func(pid int) bool

	acquired  atomic.Uint64
	merges    atomic.Uint64
	takeovers atomic.Uint64
	bypasses  atomic.Uint64
}

func newLeaseManager(dir string) *leaseManager {
	var tok [8]byte
	// crypto/rand only labels the owner for diagnostics and release
	// verification; no result bytes ever depend on it.
	_, _ = rand.Read(tok[:])
	return &leaseManager{
		dir: dir,
		//lint:ignore determinism lease ownership is operational metadata; cached payloads never depend on the holder's identity
		pid:   os.Getpid(),
		owner: hex.EncodeToString(tok[:]),
		alive: pidAlive,
	}
}

// pidAlive probes a process with signal 0. EPERM still means "exists".
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

func (lm *leaseManager) path(k Key) string {
	return filepath.Join(lm.dir, k.Hex()+".lease")
}

// formatLease renders the lease body for a heartbeat sequence number.
func (lm *leaseManager) formatLease(seq uint64) []byte {
	return []byte(leaseMagic + " " + strconv.Itoa(lm.pid) + " " + lm.owner + " " + strconv.FormatUint(seq, 10) + "\n")
}

// parseLease validates one raw lease file. Arbitrary bytes must never
// panic — FuzzParseLease holds that property.
func parseLease(raw []byte) (pid int, owner string, seq uint64, err error) {
	line := string(raw)
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		if i != len(line)-1 {
			return 0, "", 0, errBadLease
		}
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[0] != leaseMagic {
		return 0, "", 0, errBadLease
	}
	pid, err = strconv.Atoi(fields[1])
	if err != nil || pid <= 0 {
		return 0, "", 0, errBadLease
	}
	owner = fields[2]
	if owner == "" || len(owner) > 64 {
		return 0, "", 0, errBadLease
	}
	for _, c := range owner {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return 0, "", 0, errBadLease
		}
	}
	seq, err = strconv.ParseUint(fields[3], 10, 64)
	if err != nil {
		return 0, "", 0, errBadLease
	}
	return pid, owner, seq, nil
}

// tryAcquire attempts to become the lease holder for k. The lease file
// is published atomically with its full contents: the body is written
// to a temp file and hard-linked into place, so no reader ever sees a
// partially written lease, and the link fails exactly when another
// holder already owns the digest.
func (lm *leaseManager) tryAcquire(k Key) bool {
	tmp, err := os.CreateTemp(lm.dir, k.Hex()+".lease-tmp*")
	if err != nil {
		return false
	}
	name := tmp.Name()
	defer os.Remove(name)
	if _, err := tmp.Write(lm.formatLease(0)); err != nil {
		tmp.Close()
		return false
	}
	if err := tmp.Close(); err != nil {
		return false
	}
	if err := os.Link(name, lm.path(k)); err != nil {
		return false
	}
	lm.acquired.Add(1)
	return true
}

// heartbeat starts the holder's heartbeat loop and returns a stop
// function. Each beat atomically replaces the lease file with a bumped
// sequence number; replacement (not append) keeps reads consistent.
func (lm *leaseManager) heartbeat(k Key) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(0)
		for {
			select {
			case <-done:
				return
			case <-time.After(leaseHeartbeatEvery):
			}
			seq++
			lm.rewrite(k, seq)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// rewrite atomically replaces k's lease body (heartbeat bump).
func (lm *leaseManager) rewrite(k Key, seq uint64) {
	tmp, err := os.CreateTemp(lm.dir, k.Hex()+".lease-tmp*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(lm.formatLease(seq)); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, lm.path(k)); err != nil {
		os.Remove(name)
	}
}

// release drops k's lease if this manager still owns it. Ownership is
// re-verified first so a holder that was (wrongly) taken over while
// merely slow cannot delete the new holder's lease.
func (lm *leaseManager) release(k Key) {
	raw, err := os.ReadFile(lm.path(k))
	if err != nil {
		return
	}
	pid, owner, _, err := parseLease(raw)
	if err == nil && pid == lm.pid && owner == lm.owner {
		os.Remove(lm.path(k))
	}
}

// takeover claims k's lease, which the caller judged stale from its
// contents, stale. The rename is the arbitration point: when several
// followers observe the same dead holder, exactly one rename moves that
// lease aside, and only that follower proceeds to acquire. A slower
// follower's rename can instead move the winner's fresh lease; its
// contents differ from stale, so the follower puts it back and keeps
// waiting.
func (lm *leaseManager) takeover(k Key, stale []byte) bool {
	tk := lm.path(k) + ".tk-" + lm.owner
	if err := os.Rename(lm.path(k), tk); err != nil {
		return false
	}
	defer os.Remove(tk)
	if raw, err := os.ReadFile(tk); err != nil || !bytes.Equal(raw, stale) {
		// Best effort: if a third follower acquired in the meantime the
		// moved lease is lost, but its holder still publishes before it
		// releases, so waiters are served all the same.
		_ = os.Link(tk, lm.path(k))
		return false
	}
	return lm.tryAcquire(k)
}

// waitResult is a follower's exit from the wait loop.
type waitResult int

const (
	// waitEntry: the holder published the entry; payload is valid.
	waitEntry waitResult = iota
	// waitAcquired: this process now holds the lease and must compute.
	waitAcquired
	// waitBypass: the wait budget ran out; compute without the lease
	// (graceful degradation: duplicate work, identical bytes).
	waitBypass
)

// waitOrAcquire blocks until the holder of k publishes its entry, the
// lease becomes acquirable (released, or stale and taken over), or the
// wait budget is exhausted. loadEntry probes the disk store.
func (lm *leaseManager) waitOrAcquire(k Key, loadEntry func() ([]byte, bool)) ([]byte, waitResult) {
	var lastSeq uint64
	seenSeq := false
	stall := 0
	noFile := 0
	for poll := 0; poll < leaseMaxPolls; poll++ {
		if payload, ok := loadEntry(); ok {
			lm.merges.Add(1)
			return payload, waitEntry
		}
		raw, err := os.ReadFile(lm.path(k))
		if err != nil {
			if !os.IsNotExist(err) {
				lm.bypasses.Add(1)
				return nil, waitBypass
			}
			// Lease released without an entry (holder's compute failed,
			// or it finished between our two probes): contend for it.
			if lm.tryAcquire(k) {
				if payload, ok := loadEntry(); ok {
					lm.release(k)
					lm.merges.Add(1)
					return payload, waitEntry
				}
				return nil, waitAcquired
			}
			// No lease visible and none acquirable: a lost race resolves
			// next poll; a sick directory never does. Don't stall 90s on
			// the latter.
			noFile++
			if noFile >= leaseNoFilePolls {
				lm.bypasses.Add(1)
				return nil, waitBypass
			}
			time.Sleep(leasePollEvery)
			continue
		}
		noFile = 0
		stale := false
		pid, _, seq, perr := parseLease(raw)
		switch {
		case perr != nil:
			// Possibly a torn observation; give it the stall grace.
			stall++
			stale = stall >= leaseStallPolls
		case !lm.alive(pid):
			stale = true
		case seenSeq && seq == lastSeq:
			stall++
			stale = stall >= leaseStallPolls
		default:
			lastSeq, seenSeq, stall = seq, true, 0
		}
		if stale && lm.takeover(k, raw) {
			// The dead holder may have published its entry between our
			// probe and the takeover — a publish-then-die with the lease
			// still on disk. Serve it rather than recompute.
			if payload, ok := loadEntry(); ok {
				lm.release(k)
				lm.merges.Add(1)
				return payload, waitEntry
			}
			lm.takeovers.Add(1)
			return nil, waitAcquired
		}
		if !stale {
			time.Sleep(leasePollEvery)
		}
	}
	lm.bypasses.Add(1)
	return nil, waitBypass
}

// String renders the manager's identity for diagnostics.
func (lm *leaseManager) String() string {
	return fmt.Sprintf("lease-owner %s pid %d dir %s", lm.owner, lm.pid, lm.dir)
}
