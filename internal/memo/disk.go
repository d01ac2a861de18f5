package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// diskMagic versions the on-disk entry format. Bumping it invalidates
// every stored entry at once (they stop parsing and are re-measured).
const diskMagic = "memo1"

// coldDirName is the cold tier's subdirectory. Fresh entries land in
// the store root (the warm tier); a compaction pass demotes them to
// cold, and a cold hit promotes the entry back to warm. Eviction only
// ever removes cold entries, so anything touched since the last
// compaction survives a size squeeze.
const coldDirName = "cold"

// errCorrupt marks a stored entry whose header, checksum or length does
// not match its payload — truncated writes, bit rot, or a foreign file
// under the entry name. Corrupt entries are treated as misses and
// re-measured, never served.
var errCorrupt = errors.New("memo: corrupt disk entry")

// ErrCorruptEntry is the exported face of the entry-validation error:
// ParseEntry returns it for any framed entry whose header, declared
// length or payload checksum does not hold. The peer tier matches on
// it to distinguish a malformed response body from a transport error.
var ErrCorruptEntry = errCorrupt

// EncodeEntry frames a payload in the entry wire format,
//
//	memo1 <hex sha256 of payload> <payload length>\n<payload>
//
// — the same bytes Store writes to disk, returned as one buffer. The
// peer blob endpoint serves entries in this framing so a fetching
// replica verifies exactly what a local disk load would have, and the
// bytes are never re-encoded in flight.
func EncodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := diskMagic + " " + hex.EncodeToString(sum[:]) + " " + strconv.Itoa(len(payload)) + "\n"
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// ParseEntry validates one framed entry (see EncodeEntry) and returns
// its payload, or ErrCorruptEntry if the framing, declared length or
// checksum does not hold. The returned payload aliases raw.
func ParseEntry(raw []byte) ([]byte, error) {
	return parseEntry(raw)
}

// DiskStore is the on-disk layer of the cache: a two-tier directory of
// digest-named entries, one file per unit. Each file is
//
//	memo1 <hex sha256 of payload> <payload length>\n<payload>
//
// so a load can verify the payload byte-for-byte before serving it.
// Writes are crash-atomic: the entry is written to a temp file, synced
// to stable storage, renamed into place, and the directory itself is
// synced — a SIGKILL (or power cut) at any point leaves either no
// entry or a stray *.tmp file, never a half-entry under the final
// name; whatever does end up corrupt is caught by the checksum.
// Entries are never rewritten in place: the payload for a digest is a
// pure function of the digest, so the first complete write is final.
type DiskStore struct {
	dir string

	// compactMu serialises in-process compaction passes; cross-process
	// races are benign (demotion and eviction are single renames and
	// removes, and Load tolerates entries vanishing mid-probe).
	compactMu    sync.Mutex
	pendingBytes atomic.Int64

	promotions  atomic.Uint64
	demotions   atomic.Uint64
	evictions   atomic.Uint64
	compactions atomic.Uint64
}

// OpenDiskStore creates (if needed) and opens an entry directory.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, errors.New("memo: empty cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, coldDirName), 0o755); err != nil {
		return nil, fmt.Errorf("memo: create cache dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(k Key) string {
	return filepath.Join(s.dir, k.Hex()+".memo")
}

func (s *DiskStore) coldPath(k Key) string {
	return filepath.Join(s.dir, coldDirName, k.Hex()+".memo")
}

// Load returns the payload stored for k, probing the warm tier first
// and then the cold tier. A cold hit promotes the entry back to warm,
// so the hot working set stays out of eviction's reach. ok is false
// when no entry exists. A present-but-invalid entry returns errCorrupt
// (and the file is removed so the re-measured value can be stored
// cleanly).
func (s *DiskStore) Load(k Key) (payload []byte, ok bool, err error) {
	payload, ok, err = s.loadFile(s.path(k))
	if ok || err != nil {
		return payload, ok, err
	}
	payload, ok, err = s.loadFile(s.coldPath(k))
	if ok {
		// Promotion is advisory: if the rename loses a race (another
		// process promoted first, or compaction moved the file) the
		// payload we already read is still valid.
		if rerr := os.Rename(s.coldPath(k), s.path(k)); rerr == nil {
			s.promotions.Add(1)
		}
	}
	return payload, ok, err
}

// loadFile reads and validates one entry file.
func (s *DiskStore) loadFile(path string) ([]byte, bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	payload, err := parseEntry(raw)
	if err != nil {
		os.Remove(path)
		return nil, false, err
	}
	return payload, true, nil
}

// Contains reports whether a complete entry for k exists in either
// tier, without reading its payload.
func (s *DiskStore) Contains(k Key) bool {
	if _, err := os.Stat(s.path(k)); err == nil {
		return true
	}
	_, err := os.Stat(s.coldPath(k))
	return err == nil
}

// Store writes the payload for k atomically and durably. Storing a key
// that already has a complete entry is a no-op: the existing entry
// wins (duplicate reports whether that happened — under cross-process
// leases it never should, so callers count it).
func (s *DiskStore) Store(k Key, payload []byte) (duplicate bool, err error) {
	if s.Contains(k) {
		return true, nil
	}
	final := s.path(k)
	sum := sha256.Sum256(payload)
	header := diskMagic + " " + hex.EncodeToString(sum[:]) + " " + strconv.Itoa(len(payload)) + "\n"
	tmp, err := os.CreateTemp(s.dir, k.Hex()+".tmp*")
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(header); err != nil {
		tmp.Close()
		return false, err
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return false, err
	}
	// Sync file data before the rename and the directory after it:
	// without both, a power cut can leave the rename durable but the
	// contents not (or vice versa), which is exactly the torn state the
	// checksum header should never have to catch post-crash.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return false, err
	}
	if err := syncDir(s.dir); err != nil {
		return false, err
	}
	s.pendingBytes.Add(int64(len(header) + len(payload)))
	return false, nil
}

// syncDir fsyncs a directory so a completed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// tierEntry is one entry file observed during a compaction scan.
type tierEntry struct {
	name  string // file name within its tier directory
	size  int64
	mtime int64 // UnixNano, publication (or demotion) time
}

// scanTier lists the complete entries of one tier directory.
func scanTier(dir string) ([]tierEntry, int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var out []tierEntry
	var total int64
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".memo") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // vanished mid-scan (eviction race): skip
		}
		out = append(out, tierEntry{name: de.Name(), size: info.Size(), mtime: info.ModTime().UnixNano()})
		total += info.Size()
	}
	return out, total, nil
}

// Compact enforces a size budget over both tiers. The pass is a
// two-generation sweep: every warm entry is demoted to the cold tier,
// then cold entries are evicted oldest-first until the store fits the
// budget again. Because a cold hit promotes its entry back to warm,
// anything accessed between two compactions is never evicted — the
// warm/cold split is an access-recency bit that costs one rename.
// maxBytes <= 0 is a no-op. Safe to call concurrently (passes
// serialise) and across processes (races degrade to extra misses, not
// corruption).
func (s *DiskStore) Compact(maxBytes int64) error {
	if maxBytes <= 0 {
		return nil
	}
	//lint:ignore serving compactMu exists to serialise compaction passes, which are disk I/O by nature; it guards no in-memory serving state
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.compactions.Add(1)
	s.pendingBytes.Store(0)
	warm, warmTotal, err := scanTier(s.dir)
	if err != nil {
		return fmt.Errorf("memo: compact scan: %w", err)
	}
	coldDir := filepath.Join(s.dir, coldDirName)
	cold, coldTotal, err := scanTier(coldDir)
	if err != nil {
		return fmt.Errorf("memo: compact scan: %w", err)
	}
	if warmTotal+coldTotal <= maxBytes {
		return nil
	}
	// Demote the whole warm generation; demoted entries keep their
	// mtimes, so eviction order below stays publication-ordered.
	for _, e := range warm {
		if err := os.Rename(filepath.Join(s.dir, e.name), filepath.Join(coldDir, e.name)); err == nil {
			s.demotions.Add(1)
			cold = append(cold, e)
			coldTotal += e.size
		}
	}
	// Evict oldest-first until the store fits.
	sort.Slice(cold, func(i, j int) bool {
		if cold[i].mtime != cold[j].mtime {
			return cold[i].mtime < cold[j].mtime
		}
		return cold[i].name < cold[j].name
	})
	for _, e := range cold {
		if coldTotal <= maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(coldDir, e.name)); err == nil {
			s.evictions.Add(1)
			coldTotal -= e.size
		}
	}
	return nil
}

// maybeCompact runs a compaction pass when enough new bytes have been
// stored since the last one to plausibly breach the budget. The
// trigger is write-volume-based, not timer-based, so store behaviour
// stays a pure function of the operation sequence.
func (s *DiskStore) maybeCompact(maxBytes int64) {
	if maxBytes <= 0 {
		return
	}
	if s.pendingBytes.Load() >= maxBytes/4 {
		_ = s.Compact(maxBytes)
	}
}

// TierLen reports how many complete entries each tier currently holds.
func (s *DiskStore) TierLen() (warm, cold int) {
	w, _, _ := scanTier(s.dir)
	c, _, _ := scanTier(filepath.Join(s.dir, coldDirName))
	return len(w), len(c)
}

// parseEntry validates one raw entry file and extracts its payload.
func parseEntry(raw []byte) ([]byte, error) {
	nl := -1
	for i, b := range raw {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, errCorrupt
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 3 || fields[0] != diskMagic {
		return nil, errCorrupt
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, errCorrupt
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return nil, errCorrupt
	}
	payload := raw[nl+1:]
	if len(payload) != wantLen {
		return nil, errCorrupt
	}
	gotSum := sha256.Sum256(payload)
	if gotSum != [sha256.Size]byte(wantSum) {
		return nil, errCorrupt
	}
	return payload, nil
}
