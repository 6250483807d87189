package cache

import (
	"math/rand"
	"testing"
)

// refCache is the pre-rework timestamp-LRU replacement policy, kept as a
// test oracle for the linked-list scheme: hit/miss outcomes, evictions,
// writebacks and victim choices must be byte-identical for every op
// sequence, including ones with whole-cache flushes mixed in.
type refCache struct {
	tags    []uint64
	stamps  []uint64
	states  []State
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
		states:  make([]State, nLines),
		assoc:   assoc,
		setMask: uint64(nLines/assoc - 1),
	}
}

func (c *refCache) touch(i int) {
	c.tick++
	c.stamps[i] = c.tick
}

func (c *refCache) access(lineAddr uint64, write bool) Result {
	base := int(lineAddr&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == lineAddr && c.states[i] != Invalid {
			c.touch(i)
			if write && c.states[i] != Modified {
				c.states[i] = Modified
			}
			return Result{Hit: true}
		}
	}
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		if c.states[i] == Invalid {
			victim = i
			break
		}
		if c.stamps[i] < oldest {
			victim, oldest = i, c.stamps[i]
		}
	}
	res := Result{}
	if c.states[victim] != Invalid {
		res.HadEvict = true
		res.Evicted = c.tags[victim]
		res.Writeback = c.states[victim] == Modified
	}
	st := Exclusive
	if write {
		st = Modified
	}
	c.tags[victim] = lineAddr
	c.touch(victim)
	c.states[victim] = st
	return res
}

func (c *refCache) flush() int {
	dirty := 0
	for i := range c.states {
		if c.states[i] == Modified {
			dirty++
		}
		c.states[i] = Invalid
	}
	return dirty
}

func (c *refCache) probe(lineAddr uint64) State {
	base := int(lineAddr&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == lineAddr && c.states[i] != Invalid {
			return c.states[i]
		}
	}
	return Invalid
}

func (c *refCache) live() int {
	n := 0
	for i := range c.states {
		if c.states[i] != Invalid {
			n++
		}
	}
	return n
}

// Probe reports the state of lineAddr without touching LRU state: the
// tests' view of a line's state word.
func (c *Cache) Probe(lineAddr uint64) State {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	word := c.blocks[bb+1]
	for w := 0; w < c.assoc; w++ {
		if c.tagAt(bb, w) == tag && stateOf(word, w) != Invalid {
			return stateOf(word, w)
		}
	}
	return Invalid
}

func driveCacheEquiv(t *testing.T, cfg Config, ops []byte) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newRefCache(cfg)
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k], ops[k+1]
		line := uint64(arg % 53)
		w := op&0x80 != 0
		switch {
		case op == 0xff: // rare, so sets fill and evict between flushes
			if nd, rd := n.Flush(), r.flush(); nd != rd {
				t.Fatalf("op %d: flush = %d dirty want %d", k, nd, rd)
			}
		case op%4 == 3:
			if np, rp := n.Probe(line), r.probe(line); np != rp {
				t.Fatalf("op %d: probe(%d) = %v want %v", k, line, np, rp)
			}
		default: // access dominates, like real traffic
			nr := n.Access(line, w)
			rr := r.access(line, w)
			if nr != rr {
				t.Fatalf("op %d: access(%d,w=%v) = %+v want %+v", k, line, w, nr, rr)
			}
		}
		if n.Live() != r.live() {
			t.Fatalf("op %d: live %d want %d", k, n.Live(), r.live())
		}
	}
	// Final full-state comparison.
	for line := uint64(0); line < 64; line++ {
		if np, rp := n.Probe(line), r.probe(line); np != rp {
			t.Fatalf("final: probe(%d) = %v want %v", line, np, rp)
		}
	}
}

// TestLinkedLRUMatchesStampReference pins the linked-list recency scheme to
// the old timestamp policy across random op streams and the associativity
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
