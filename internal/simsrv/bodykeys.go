package simsrv

import (
	"crypto/sha256"
	"sync"
)

// defaultBodyKeys bounds the body→key map of a server whose memo is
// unbounded (MemoCapacity 0). The memo's size cannot bound it then:
// deadline_ms variants of one config are distinct bodies with one key.
const defaultBodyKeys = 4096

// bodySum identifies a request body by its SHA-256, so a map entry costs
// the same whatever the body's length.
type bodySum = [sha256.Size]byte

// bodyKeys maps the exact bytes of a request body that compiled to a run,
// by their SHA-256, to that run's RunKey: a repeated body finds its memo
// entry without a decode, a compile or a RunKey. It holds at most capacity
// entries and, once full, replaces the oldest insertion: O(1), and the
// survivors after any request sequence are a function of that sequence.
type bodyKeys struct {
	mu       sync.Mutex
	keys     map[bodySum]string
	order    []bodySum // insertion order, a ring once len == capacity
	next     int       // the oldest slot of the full ring
	capacity int
}

// newBodyKeys returns a map bounded like a memo of memoCapacity entries;
// memoCapacity <= 0 (an unbounded memo) takes defaultBodyKeys.
func newBodyKeys(memoCapacity int) *bodyKeys {
	if memoCapacity <= 0 {
		memoCapacity = defaultBodyKeys
	}
	return &bodyKeys{keys: make(map[bodySum]string), capacity: memoCapacity}
}

// get returns the RunKey recorded for a body.
func (b *bodyKeys) get(sum *bodySum) (string, bool) {
	b.mu.Lock()
	key, ok := b.keys[*sum]
	b.mu.Unlock()
	return key, ok
}

// put records that the body with this sum compiled to key. A body already
// recorded keeps its slot: its key cannot differ.
func (b *bodyKeys) put(sum *bodySum, key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.keys[*sum]; ok {
		return
	}
	if len(b.order) < b.capacity {
		b.order = append(b.order, *sum)
	} else {
		delete(b.keys, b.order[b.next])
		b.order[b.next] = *sum
		b.next = (b.next + 1) % b.capacity
	}
	b.keys[*sum] = key
}
