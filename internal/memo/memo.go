// Package memo provides deterministic result memoization for the simulator:
// a canonical content hash of (machine model, workload, params, seed) keys a
// content-addressed cache of simulation results. Because every simulation is
// bit-deterministic, a cached result is indistinguishable from a re-run —
// drivers that revisit a (config, seed) grid point get counters back
// without simulating.
//
// KeyOf hashes any JSON-encodable parts. npb.RunKey writes the same bytes
// for a run config by hand, without reflection, and its tests hold it equal
// to KeyOf; cmd/chaos keys its baselines with KeyOf directly.
//
// Results are stored as their canonical JSON encoding (content-addressed
// bytes), and any JSON-encodable result type works. GetOrComputeBytes hands
// back those stored bytes as they are, for callers that only pass them on
// (simsrv writes them into its response unchanged); GetOrCompute decodes
// them into a fresh value of the caller's result type, which retains no
// reference to the run that produced it or to the cache. Lookup returns a
// completed entry's bytes without waiting or computing, so a caller can
// build its compute only on a miss (simsrv's hit path).
//
// Only successful computations are memoized. A compute that returns an error
// is reported to every caller collapsed onto it and then forgotten, so the
// next request for the key retries: error values are not content-addressed
// facts — a cancelled or deadline-expired run says something about the
// request that carried it, not about the (config, seed) point.
package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// SchemaVersion is the result-format generation folded into every canonical
// key. Bump it whenever the encoding of memoized results changes shape or
// meaning: the hash of every (config, seed) point changes with it, so a
// persistent store (internal/memo/diskcache) populated by an older binary can
// never be decoded as fresh — its stale entries become unreachable and are
// garbage-collected by the disk layer's own header check.
const SchemaVersion = 2

// KeyOf returns the canonical hash of the given parts: SHA-256 over the
// schema version followed by their JSON encodings in order. encoding/json
// writes struct fields in declared order and sorts map keys, so two
// structurally equal values always produce the same key. Parts that cannot
// be encoded (channels, funcs) are a caller bug and return an error.
func KeyOf(parts ...any) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "memo/schema/%d\n", SchemaVersion)
	enc := json.NewEncoder(h)
	for i, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("memo: key part %d: %w", i, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// MustKey is KeyOf for parts known to encode (config structs, scalars).
func MustKey(parts ...any) string {
	k, err := KeyOf(parts...)
	if err != nil {
		panic(err)
	}
	return k
}

// errComputePanicked is the error a caller gets when it collapsed onto a
// flight whose compute panicked.
var errComputePanicked = errors.New("memo: compute panicked")

// entry is one cached computation. once gives per-key single-flight: the
// first caller computes, concurrent callers with the same key block on the
// same once and then read the stored bytes — so a sweep whose grid repeats
// a (config, seed) point simulates it exactly once even under internal/par.
// backed records that the flight was answered by the backing store without
// running compute (a cross-process hit). done is stored, after data, only
// by a flight that succeeded: Lookup reads data once it loads done true,
// without waiting on once.
type entry struct {
	key    string
	once   sync.Once
	data   []byte
	err    error
	backed bool
	done   atomic.Bool
}

// Backing is an optional second-level store consulted when the in-memory
// layer misses: typically internal/memo/diskcache, shared across processes.
// GetOrCompute must return the bytes stored under key, running compute — at
// most once per key across every cooperating process — only when the store
// has none, and must not store anything when compute fails.
type Backing interface {
	GetOrCompute(key string, compute func() ([]byte, error)) ([]byte, error)
}

// cacheStats counts the cache's hits, misses and evictions.
type cacheStats struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// Cache is a content-addressed result cache. The zero value is not usable;
// call New or NewBounded.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*entry
	order    []*entry // insertion order; only maintained when bounded
	capacity int      // 0 = unbounded
	backing  Backing  // optional L2; nil = memory only
	stats    cacheStats
}

// New creates an empty, unbounded cache (batch drivers whose key space is the
// finite experiment grid).
func New() *Cache {
	return &Cache{entries: make(map[string]*entry)}
}

// NewBounded creates a cache holding at most capacity entries. When an
// insertion exceeds the capacity the oldest-inserted entry is evicted —
// eviction order is the deterministic insertion order, never host-timing
// access recency — so a long-lived service's memory stays bounded while the
// set of survivors after any request sequence is a pure function of that
// sequence. capacity <= 0 means unbounded.
func NewBounded(capacity int) *Cache {
	c := New()
	if capacity > 0 {
		c.capacity = capacity
	}
	return c
}

// SetBacking layers a second-level store under the in-memory cache: misses
// consult it before computing, computed results are published to it, and a
// backing hit counts as cached for the caller (the returned bool) without
// touching the in-memory hit/miss stats, which stay a statement about this
// process. Call before the cache is shared; not safe concurrently with
// GetOrCompute.
func (c *Cache) SetBacking(b Backing) { c.backing = b }

// GetOrComputeBytes returns the canonical JSON stored under key, computing
// and storing it on first use: compute's result is encoded with json.Marshal
// once, on the miss, and every caller — the leader, waiters collapsed onto
// its flight, later hits — receives that same stored slice. Callers must not
// modify the returned bytes. The returned bool reports whether the result
// came from a cache layer — this process's memory or the backing store
// (true) — or compute ran (false).
//
// If compute fails, every caller collapsed onto that flight observes its
// error and the key is forgotten, so a later identical request retries
// instead of replaying a stale failure. Nothing is published to the backing
// store on failure either, so the key stays retryable across processes. A
// compute that panics fails the same way: the panic goes on to the caller
// whose compute raised it, and the callers collapsed onto its flight get an
// error.
func (c *Cache) GetOrComputeBytes(key string, compute func() (any, error)) ([]byte, bool, error) {
	c.mu.Lock()
	e, hit := c.entries[key]
	if !hit {
		e = &entry{key: key}
		c.entries[key] = e
		if c.capacity > 0 {
			c.order = append(c.order, e)
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	if hit {
		c.stats.hits.Add(1)
	} else {
		c.stats.misses.Add(1)
	}
	e.once.Do(func() {
		// A failed flight forgets its key, a panicked one included:
		// sync.Once counts a panicking f as done, so the outcome stays
		// errComputePanicked unless compute returns.
		e.err = errComputePanicked
		defer func() {
			if e.err != nil {
				c.forget(e)
			}
		}()
		if c.backing != nil {
			computed := false
			e.data, e.err = c.backing.GetOrCompute(e.key, func() ([]byte, error) {
				computed = true
				v, err := compute()
				if err != nil {
					return nil, err
				}
				return json.Marshal(v)
			})
			e.backed = e.err == nil && !computed
		} else if v, err := compute(); err != nil {
			e.err = err
		} else {
			e.data, e.err = json.Marshal(v)
		}
		e.done.Store(e.err == nil)
	})
	if e.err != nil {
		return nil, hit, e.err
	}
	return e.data, hit || e.backed, nil
}

// Lookup returns the bytes stored under key when a flight for it has
// completed successfully, without waiting and without computing: the hit
// path for callers that can build their compute only on a miss. A found
// entry counts as a hit. An absent key, a flight still in progress and a
// failed one all report false and count nothing, so a caller that goes on
// to GetOrComputeBytes is counted once, there. Lookup does not consult the
// backing store. Callers must not modify the returned bytes.
func (c *Cache) Lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil || !e.done.Load() {
		return nil, false
	}
	c.stats.hits.Add(1)
	return e.data, true
}

// GetOrCompute is GetOrComputeBytes decoding the stored bytes into out (a
// non-nil pointer) on every return, hit or miss — so callers always observe
// the round-tripped value, and mutating it can never reach the cache or
// another caller.
func (c *Cache) GetOrCompute(key string, compute func() (any, error), out any) (bool, error) {
	data, cached, err := c.GetOrComputeBytes(key, compute)
	if err != nil {
		return cached, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return cached, fmt.Errorf("memo: decode %.8s: %w", key, err)
	}
	return cached, nil
}

// evictLocked trims the cache back to capacity, oldest insertion first. Order
// slots whose entry was already forgotten (errored computes, explicit
// Forget) are skipped without counting as evictions. Callers hold c.mu.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order[0] = nil
		c.order = c.order[1:]
		if c.entries[victim.key] == victim {
			delete(c.entries, victim.key)
			c.stats.evictions.Add(1)
		}
	}
}

// forget drops e if it is still the live entry for its key (a newer entry
// for the same key is left alone). The order slot goes stale and is skipped
// at eviction time.
func (c *Cache) forget(e *entry) {
	c.mu.Lock()
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
}

// Forget removes key from the cache if present, so the next GetOrCompute
// recomputes it. In-flight computations for the key are unaffected: their
// waiters still observe the flight's outcome.
func (c *Cache) Forget(key string) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
}

// Stats returns the lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.stats.hits.Load(), c.stats.misses.Load()
}

// Evictions returns the number of entries evicted by the capacity bound.
func (c *Cache) Evictions() uint64 { return c.stats.evictions.Load() }

// Capacity returns the configured bound (0 = unbounded).
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of distinct keys stored (including in-flight ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
