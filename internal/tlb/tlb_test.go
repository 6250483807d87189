package tlb

import (
	"testing"
	"testing/quick"
)

// mustNew builds a TLB whose geometry the test knows to be valid.
func mustNew(t testing.TB, cfg Config) *TLB {
	t.Helper()
	tl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// mustHierarchy builds a TLB stack whose geometry the test knows to be valid.
func mustHierarchy(t testing.TB, spec Spec) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNilTLBNeverHits(t *testing.T) {
	var nilTLB *TLB = mustNew(t, Config{Entries: 0})
	if nilTLB != nil {
		t.Fatal("Entries:0 should yield nil TLB")
	}
	if nilTLB.Lookup(5) {
		t.Error("nil TLB hit")
	}
	nilTLB.Insert(5) // must not panic
	nilTLB.Flush()
	if nilTLB.Entries() != 0 || nilTLB.Live() != 0 {
		t.Error("nil TLB reports capacity")
	}
}

func TestHitAfterInsert(t *testing.T) {
	tl := mustNew(t, Config{Entries: 8})
	if tl.Lookup(100) {
		t.Error("hit on empty TLB")
	}
	tl.Insert(100)
	if !tl.Lookup(100) {
		t.Error("miss after insert")
	}
}

func TestLRUEvictionFullyAssociative(t *testing.T) {
	tl := mustNew(t, Config{Entries: 4})
	for vpn := uint64(0); vpn < 4; vpn++ {
		tl.Insert(vpn)
	}
	// Touch 0 so 1 becomes LRU.
	if !tl.Lookup(0) {
		t.Fatal("0 should be resident")
	}
	ev, was := tl.Insert(99)
	if !was || ev.VPN != 1 {
		t.Errorf("evicted %+v (evict=%v), want vpn 1", ev, was)
	}
	if tl.Lookup(1) {
		t.Error("1 should be evicted")
	}
	for _, vpn := range []uint64{0, 2, 3, 99} {
		if !tl.Lookup(vpn) {
			t.Errorf("%d should be resident", vpn)
		}
	}
}

func TestSetAssociativeConflicts(t *testing.T) {
	// 8 entries, 2 ways -> 4 sets. VPNs congruent mod 4 conflict.
	tl := mustNew(t, Config{Entries: 8, Ways: 2})
	tl.Insert(0)
	tl.Insert(4)
	tl.Insert(8) // evicts 0 (LRU in set 0)
	if tl.Lookup(0) {
		t.Error("0 should be evicted by set conflict")
	}
	if !tl.Lookup(4) || !tl.Lookup(8) {
		t.Error("4 and 8 should be resident")
	}
	// A different set is unaffected.
	tl.Insert(1)
	if !tl.Lookup(1) {
		t.Error("1 should be resident")
	}
}

func TestInvalidate(t *testing.T) {
	tl := mustNew(t, Config{Entries: 4})
	tl.Insert(7)
	if !tl.Invalidate(7) {
		t.Error("invalidate should find 7")
	}
	if tl.Lookup(7) {
		t.Error("7 should be gone")
	}
	if tl.Invalidate(7) {
		t.Error("second invalidate should miss")
	}
}

func TestLiveNeverExceedsCapacity(t *testing.T) {
	f := func(vpns []uint16) bool {
		tl := mustNew(t, Config{Entries: 16, Ways: 4})
		for _, v := range vpns {
			tl.Insert(uint64(v))
			if tl.Live() > 16 {
				return false
			}
		}
		// Every resident entry must be findable.
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: inserting then immediately looking up always hits, regardless of
// history (the entry can't be evicted before any intervening insert).
func TestInsertThenLookupHits(t *testing.T) {
	f := func(vpns []uint16) bool {
		tl := mustNew(t, Config{Entries: 8, Ways: 2})
		for _, v := range vpns {
			tl.Insert(uint64(v))
			if !tl.Lookup(uint64(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than associativity in one set is never
// evicted under LRU (stack property for fully-associative TLBs).
func TestLRUStackProperty(t *testing.T) {
	f := func(accesses []uint8) bool {
		tl := mustNew(t, Config{Entries: 8}) // fully associative
		hot := []uint64{1000, 1001, 1002, 1003}
		for _, h := range hot {
			tl.Insert(h)
		}
		miss := 0
		for _, a := range accesses {
			// Alternate between hot pages and cold pages; hot working set
			// of 4 + 1 in-flight cold page <= 8 entries, so hot never
			// misses.
			cold := uint64(2000 + int(a))
			tl.Insert(cold)
			for _, h := range hot {
				if !tl.Lookup(h) {
					miss++
				}
			}
		}
		return miss == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsCount(t *testing.T) {
	tl := mustNew(t, Config{Entries: 2})
	tl.Lookup(1) // miss
	tl.Insert(1)
	tl.Lookup(1) // hit
	tl.Lookup(1) // hit (MRU path)
	h, m := tl.Stats()
	if h != 2 || m != 1 {
		t.Errorf("stats = %d hits %d misses, want 2/1", h, m)
	}
}

// TestBadConfigsPanic: the geometries New and NewHierarchy cannot build,
// which once panicked, come back as errors instead.
func TestBadConfigsPanic(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 10, Ways: 4}, // not divisible
		{Entries: 24, Ways: 8}, // 3 sets: not a power of two
		{Entries: -8},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	bad := Spec{Name: "bad", L1: LevelSpec{E4K: Config{Entries: 12, Ways: 8}}}
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("hierarchy with an invalid structure accepted")
	}
}
