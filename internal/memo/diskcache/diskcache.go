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
// Processes do not coordinate. internal/memo's per-key flight asks the store
// with Get and, on a miss, computes and publishes with Put; two processes
// that miss one key at once both compute it and both rename the same bytes
// into place, so a reader still sees a whole, correct entry or none, and no
// process ever waits on another.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// FormatVersion is the on-disk entry format generation. A reader that finds
// any other version treats the entry as stale: a miss, counted and deleted.
const FormatVersion = 1

// magic marks an entry file as ours; anything else is foreign garbage.
var magic = [4]byte{'H', 'O', 'M', 'C'}

// headerSize is magic + version (uint32) + payload length (uint64) +
// SHA-256 checksum.
const headerSize = 4 + 4 + 8 + sha256.Size

// storeStats counts the store's outcomes.
type storeStats struct {
	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	corrupt     atomic.Uint64
	stale       atomic.Uint64
	writeErrors atomic.Uint64
}

// Stats is a snapshot of the store's lifetime counts.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses uint64
	// Writes counts entries atomically published.
	Writes uint64
	// CorruptSkips counts entries read as misses because they were torn,
	// truncated, bit-flipped or foreign garbage — and deleted.
	CorruptSkips uint64
	// StaleVersions counts entries read as misses because their format
	// version was not FormatVersion — and deleted.
	StaleVersions uint64
	// WriteErrors counts Puts that failed (a memo flight still answers with
	// the result it computed; the cache just stays cold for that key).
	WriteErrors uint64
}

// Store is one handle on an on-disk cache directory. Handles are safe for
// concurrent use, and any number of handles — in any number of processes —
// may share a directory.
type Store struct {
	dir   string
	stats storeStats
}

// Open creates (if needed) and opens the cache directory at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Stats returns a snapshot of the store's lifetime counts.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:          s.stats.hits.Load(),
		Misses:        s.stats.misses.Load(),
		Writes:        s.stats.writes.Load(),
		CorruptSkips:  s.stats.corrupt.Load(),
		StaleVersions: s.stats.stale.Load(),
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
	path := s.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.stats.misses.Add(1)
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
		s.stats.misses.Add(1)
		return nil, false
	}
	s.stats.hits.Add(1)
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

// Put publishes payload under key: written to a temporary file in the
// entry's directory, fsynced, and atomically renamed into place, so no
// reader — in this process or any other — can observe a partial entry. Two
// Puts of one key each rename a whole entry; the last one stays. A failed
// Put is counted in WriteErrors and leaves no temporary file behind.
func (s *Store) Put(key string, payload []byte) (err error) {
	defer func() {
		if err != nil {
			s.stats.writeErrors.Add(1)
			err = fmt.Errorf("diskcache: %w", err)
		} else {
			s.stats.writes.Add(1)
		}
	}()
	path := s.entryPath(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(encodeEntry(payload))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
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
