// Package diskcache is the crash-safe, content-addressed on-disk layer under
// internal/memo: a directory of result entries keyed by the memo's canonical
// SHA-256 keys, shared by every process pointed at the same path. A sweep
// populates it, a restarted simd serves from it, a chaos soak reuses it — the
// cross-process complement of the per-process memo.
//
// The store never trusts its own bytes. Every entry carries a fixed header
// (magic, format version, payload length, SHA-256 checksum) and is written to
// a temporary file in the same directory and atomically renamed into place,
// so a reader can only ever observe a complete entry or none. Anything else —
// truncated by a torn write, bit-flipped by a bad disk, left behind by a
// foreign format version — reads as a miss, is counted, and is deleted
// (garbage collection is lazy: the corrupt entry is removed the first time it
// is touched). A result-format change additionally changes every canonical
// key (memo.SchemaVersion is folded into the hash), so a stale entry can
// never decode as fresh even if its header survives.
//
// Concurrent processes coordinate through advisory per-key lock files:
// GetOrCompute lets exactly one process compute a missing entry while the
// others poll for the published result. A leader that fails releases its lock
// without publishing, so a waiter promotes itself and retries; a leader that
// dies without cleaning up is timed out (the lock's mtime exceeds the TTL)
// and its lock is stolen — waiters can stall for at most the TTL, never
// deadlock.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// FormatVersion is the on-disk entry format generation. A reader that finds
// any other version treats the entry as stale: a miss, counted and deleted.
const FormatVersion = 1

// magic marks an entry file as ours; anything else is foreign garbage.
var magic = [4]byte{'H', 'O', 'M', 'C'}

// headerSize is magic + version (uint32) + payload length (uint64) +
// SHA-256 checksum.
const headerSize = 4 + 4 + 8 + sha256.Size

const (
	defaultLockTTL = 2 * time.Minute
	defaultPoll    = 5 * time.Millisecond
)

// storeStats counts the store's outcomes.
type storeStats struct {
	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	corrupt     atomic.Uint64
	stale       atomic.Uint64
	waits       atomic.Uint64
	steals      atomic.Uint64
	writeErrors atomic.Uint64
}

// Stats is a snapshot of the store's lifetime counts.
type Stats struct {
	// Hits and Misses count Get outcomes (GetOrCompute calls Get under the
	// hood, so its lookups are included).
	Hits, Misses uint64
	// Writes counts entries atomically published.
	Writes uint64
	// CorruptSkips counts entries read as misses because they were torn,
	// truncated, bit-flipped or foreign garbage — and deleted.
	CorruptSkips uint64
	// StaleVersions counts entries read as misses because their format
	// version was not FormatVersion — and deleted.
	StaleVersions uint64
	// Waits counts GetOrCompute calls that found another process computing
	// and polled; Steals counts locks broken after the TTL.
	Waits, Steals uint64
	// WriteErrors counts computed results that could not be persisted (the
	// caller still gets the result; the cache just stays cold for that key).
	WriteErrors uint64
}

// Store is one handle on an on-disk cache directory. Handles are safe for
// concurrent use, and any number of handles — in any number of processes —
// may share a directory.
type Store struct {
	dir     string
	lockTTL time.Duration
	poll    time.Duration
	stats   storeStats
}

// Open creates (if needed) and opens the cache directory at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	return &Store{dir: dir, lockTTL: defaultLockTTL, poll: defaultPoll}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's lifetime counts.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:          s.stats.hits.Load(),
		Misses:        s.stats.misses.Load(),
		Writes:        s.stats.writes.Load(),
		CorruptSkips:  s.stats.corrupt.Load(),
		StaleVersions: s.stats.stale.Load(),
		Waits:         s.stats.waits.Load(),
		Steals:        s.stats.steals.Load(),
		WriteErrors:   s.stats.writeErrors.Load(),
	}
}

// entryPath maps a key to its file: two-level fan-out on the first hex byte
// so huge grids don't pile one directory up. Keys are the memo's lowercase
// hex SHA-256 strings; anything else is re-hashed into that alphabet first,
// so a hostile key can never escape the cache directory.
func (s *Store) entryPath(key string) string {
	key = safeKey(key)
	return filepath.Join(s.dir, key[:2], key+".e")
}

func (s *Store) lockPath(key string) string {
	key = safeKey(key)
	return filepath.Join(s.dir, key[:2], key+".lock")
}

func safeKey(key string) string {
	if len(key) >= 2 && isHex(key) {
		return key
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(key)))
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the payload stored under key. Absent entries are misses;
// corrupt, truncated or foreign-version entries are misses too, counted and
// garbage-collected, never errors: the disk layer can only ever cost a
// recomputation, not correctness.
func (s *Store) Get(key string) ([]byte, bool) {
	payload, ok := s.read(key)
	if ok {
		s.stats.hits.Add(1)
	} else {
		s.stats.misses.Add(1)
	}
	return payload, ok
}

// read is Get without the hit/miss accounting (corrupt and stale entries are
// still counted and collected): GetOrCompute's under-lock double-check uses
// it so one caller-visible lookup never counts as two.
func (s *Store) read(key string) ([]byte, bool) {
	path := s.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, err := decodeEntry(raw)
	if err != nil {
		if errors.Is(err, errStaleVersion) {
			s.stats.stale.Add(1)
		} else {
			s.stats.corrupt.Add(1)
		}
		_ = os.Remove(path) // lazy GC: miss now, gone next time
		return nil, false
	}
	return payload, true
}

var errStaleVersion = errors.New("diskcache: foreign format version")

// decodeEntry validates raw against the header contract and returns the
// payload. Every failure mode reads as an error, never a panic, whatever the
// bytes are.
func decodeEntry(raw []byte) ([]byte, error) {
	if len(raw) < headerSize {
		return nil, fmt.Errorf("diskcache: entry truncated at %d bytes", len(raw))
	}
	if !bytes.Equal(raw[:4], magic[:]) {
		return nil, errors.New("diskcache: bad magic")
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != FormatVersion {
		return nil, errStaleVersion
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	payload := raw[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("diskcache: payload length %d, header says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], raw[16:16+sha256.Size]) {
		return nil, errors.New("diskcache: checksum mismatch")
	}
	return payload, nil
}

func encodeEntry(payload []byte) []byte {
	raw := make([]byte, headerSize+len(payload))
	copy(raw[:4], magic[:])
	binary.LittleEndian.PutUint32(raw[4:8], FormatVersion)
	binary.LittleEndian.PutUint64(raw[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(raw[16:16+sha256.Size], sum[:])
	copy(raw[headerSize:], payload)
	return raw
}

// Put publishes payload under key: written to a temporary file in the entry's
// directory, fsynced, and atomically renamed into place, so no reader —
// in this process or any other — can observe a partial entry.
func (s *Store) Put(key string, payload []byte) error {
	path := s.entryPath(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(encodeEntry(payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	syncDir(dir)
	s.stats.writes.Add(1)
	return nil
}

// syncDir fsyncs a directory so the rename itself is durable; best-effort
// (some filesystems refuse directory fsync — the entry is still atomic).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// GetOrCompute returns the payload stored under key, computing and publishing
// it on first use — across processes. Exactly one process computes a missing
// key at a time: the first to create the key's advisory lock file leads,
// every other polls until the entry appears or the lock is released (a failed
// leader) or goes stale past the TTL (a dead one). A compute error is
// returned to the leader's caller and publishes nothing, so the key stays
// retryable. A computed result that cannot be persisted is still returned —
// persistence failures cost future hits, never the present answer.
func (s *Store) GetOrCompute(key string, compute func() ([]byte, error)) ([]byte, error) {
	for {
		if payload, ok := s.Get(key); ok {
			return payload, nil
		}
		locked, err := s.tryLock(key)
		if err != nil {
			// The directory itself is unusable (permissions, disk full):
			// degrade to computing without coordination.
			payload, cerr := compute()
			if cerr != nil {
				return nil, cerr
			}
			s.stats.writeErrors.Add(1)
			return payload, nil
		}
		if !locked {
			s.stats.waits.Add(1)
			s.waitFor(key)
			continue
		}
		// Leader. Double-check under the lock: the previous leader may have
		// published between our miss and our acquisition.
		if payload, ok := s.read(key); ok {
			s.stats.hits.Add(1)
			s.unlock(key)
			return payload, nil
		}
		payload, cerr := func() ([]byte, error) {
			defer s.unlock(key)
			payload, cerr := compute()
			if cerr != nil {
				return nil, cerr
			}
			if werr := s.Put(key, payload); werr != nil {
				s.stats.writeErrors.Add(1)
			}
			return payload, nil
		}()
		return payload, cerr
	}
}

// tryLock attempts to create the key's advisory lock file. (true, nil) means
// this process leads; (false, nil) means another holds it; an error means the
// directory cannot host lock files at all.
func (s *Store) tryLock(key string) (bool, error) {
	path := s.lockPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil
		}
		return false, err
	}
	fmt.Fprintf(f, "%d\n", os.Getpid())
	_ = f.Close()
	return true, nil
}

func (s *Store) unlock(key string) {
	_ = os.Remove(s.lockPath(key))
}

// waitFor polls until the key's entry exists, its lock is released, or the
// lock goes stale past the TTL (in which case it is stolen). It never waits
// longer than the TTL, so a crashed leader cannot deadlock its waiters.
func (s *Store) waitFor(key string) {
	lock := s.lockPath(key)
	entry := s.entryPath(key)
	for {
		time.Sleep(s.poll)
		if _, err := os.Stat(entry); err == nil {
			return
		}
		fi, err := os.Stat(lock)
		if err != nil {
			return // lock released: retry acquisition
		}
		if time.Since(fi.ModTime()) > s.lockTTL {
			_ = os.Remove(lock)
			s.stats.steals.Add(1)
			return
		}
	}
}
