package cache

import (
	"math/bits"
	"math/rand"
	"testing"
)

// refCache is the pre-rework timestamp-LRU replacement policy, kept as a
// test oracle for the packed recency scheme: hit/miss outcomes and victim
// choices must be identical for every access sequence.
type refCache struct {
	tags    []uint64
	stamps  []uint64
	valid   []bool
	assoc   int
	setMask uint64
	tick    uint64
}

func newRefCache(cfg Config) *refCache {
	nLines := int(cfg.SizeBytes / 64)
	assoc := cfg.Ways
	if assoc <= 0 || assoc > nLines {
		assoc = nLines
	}
	return &refCache{
		tags:    make([]uint64, nLines),
		stamps:  make([]uint64, nLines),
		valid:   make([]bool, nLines),
		assoc:   assoc,
		setMask: uint64(nLines/assoc - 1),
	}
}

func (c *refCache) touch(i int) {
	c.tick++
	c.stamps[i] = c.tick
}

func (c *refCache) access(lineAddr uint64) bool {
	base := int(lineAddr&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == lineAddr && c.valid[i] {
			c.touch(i)
			return true
		}
	}
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		if !c.valid[i] {
			victim = i
			break
		}
		if c.stamps[i] < oldest {
			victim, oldest = i, c.stamps[i]
		}
	}
	c.tags[victim] = lineAddr
	c.touch(victim)
	c.valid[victim] = true
	return false
}

func (c *refCache) resident(lineAddr uint64) bool {
	base := int(lineAddr&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == lineAddr && c.valid[i] {
			return true
		}
	}
	return false
}

// resident reports whether lineAddr is cached, without touching LRU state:
// the tests' view of residency.
func (c *Cache) resident(lineAddr uint64) bool {
	bb := int(lineAddr&c.setMask) * c.blockWords
	tag := c.tagOf(lineAddr)
	valid := c.blocks[bb+1]
	for w := 0; w < c.assoc; w++ {
		if c.tagAt(bb, w) == tag && valid>>w&1 != 0 {
			return true
		}
	}
	return false
}

// Live returns the number of valid lines.
func (c *Cache) Live() int {
	n := 0
	for s := 0; s < c.sets; s++ {
		n += bits.OnesCount64(c.blocks[s*c.blockWords+1])
	}
	return n
}

// lineSpan is the number of distinct lines an oracle stream touches: few
// enough that every set fills and evicts, and small enough to compare every
// line's residency after every access.
const lineSpan = 53

// driveCacheEquiv replays one access per byte of ops against the cache and
// the reference, and fails at the first access whose hit outcome differs or
// after which any line the stream can touch differs in residency — which
// pins victim choice, since Access no longer reports the line it evicted.
func driveCacheEquiv(t *testing.T, cfg Config, ops []byte) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newRefCache(cfg)
	for k, b := range ops {
		line := uint64(b % lineSpan)
		if nh, rh := n.Access(line), r.access(line); nh != rh {
			t.Fatalf("op %d: access(%d) hit = %v want %v", k, line, nh, rh)
		}
		for l := uint64(0); l < lineSpan; l++ {
			if nr, rr := n.resident(l), r.resident(l); nr != rr {
				t.Fatalf("op %d: after access(%d), line %d resident = %v want %v", k, line, l, nr, rr)
			}
		}
	}
}

// TestLinkedLRUMatchesStampReference pins the packed recency scheme to the
// old timestamp policy across random access streams and the associativity
// classes the simulated processors use (2-way Opteron L1, 8/16-way L2s,
// fully associative edge case).
func TestLinkedLRUMatchesStampReference(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 16 * 64, Ways: 2},
		{SizeBytes: 64 * 64, Ways: 8},
		{SizeBytes: 64 * 64, Ways: 16},
		{SizeBytes: 8 * 64}, // fully associative
		{SizeBytes: 1 * 64, Ways: 1},
	}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range cfgs {
		for trial := 0; trial < 40; trial++ {
			ops := make([]byte, 500)
			rng.Read(ops)
			driveCacheEquiv(t, cfg, ops)
		}
	}
}

// FuzzLinkedLRUEquivalence is the fuzz-driven version of the same oracle.
func FuzzLinkedLRUEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 0, 17, 6, 1, 128, 17, 3, 17, 0, 17})
	f.Add([]byte{9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		driveCacheEquiv(t, Config{SizeBytes: 16 * 64, Ways: 4}, ops)
		driveCacheEquiv(t, Config{SizeBytes: 8 * 64}, ops)
	})
}
