package tlb

import (
	"testing"

	"hugeomp/internal/units"
)

func opteronDTLB() Spec {
	return Spec{
		Name: "opteron-dtlb",
		L1: LevelSpec{
			E4K: Config{Entries: 32},
			E2M: Config{Entries: 8},
		},
		L2: LevelSpec{
			E4K: Config{Entries: 512, Ways: 4},
		},
	}
}

func TestHierarchyMissFillHit(t *testing.T) {
	h := mustHierarchy(t, opteronDTLB())
	if got := h.Access(5, units.Size4K); got != Miss {
		t.Fatalf("first access = %v, want Miss", got)
	}
	h.Fill(5, units.Size4K)
	if got := h.Access(5, units.Size4K); got != HitL1 {
		t.Fatalf("after fill = %v, want HitL1", got)
	}
}

func TestHierarchyL2Promotion(t *testing.T) {
	h := mustHierarchy(t, opteronDTLB())
	// Fill 33 pages: page 0 is evicted from the 32-entry L1 into L2.
	for vpn := uint64(0); vpn < 33; vpn++ {
		h.Fill(vpn, units.Size4K)
	}
	got := h.Access(0, units.Size4K)
	if got != HitL2 {
		t.Fatalf("evicted page = %v, want HitL2", got)
	}
	// Promotion: now it is an L1 hit.
	if got := h.Access(0, units.Size4K); got != HitL1 {
		t.Fatalf("after promotion = %v, want HitL1", got)
	}
}

func TestOpteronNo2ML2(t *testing.T) {
	// The Opteron L2 DTLB holds no 2MB entries: filling 9 large pages must
	// evict one entirely (L1 capacity 8, no L2 backstop).
	h := mustHierarchy(t, opteronDTLB())
	for vpn := uint64(0); vpn < 9; vpn++ {
		h.Fill(vpn, units.Size2M)
	}
	misses := 0
	for vpn := uint64(0); vpn < 9; vpn++ {
		if h.Access(vpn, units.Size2M) == Miss {
			misses++
		}
	}
	if misses == 0 {
		t.Error("expected at least one 2MB miss: Opteron has only 8 large-page entries and no L2 backstop")
	}
}

func TestSizeClassesIndependent(t *testing.T) {
	h := mustHierarchy(t, opteronDTLB())
	h.Fill(7, units.Size4K)
	if got := h.Access(7, units.Size2M); got != Miss {
		t.Errorf("2M probe of 4K-filled vpn = %v, want Miss (classes are separate arrays)", got)
	}
}

// TestHalve: Partition slices every structure by the cache rule. Two
// sharers halve the paper's processors exactly, fully associative and
// set-associative alike; more sharers divide a fully associative structure
// and keep a set-associative one's ways over a power-of-two set count.
func TestHalve(t *testing.T) {
	s := opteronDTLB().Partition(2)
	if s.L1.E4K.Entries != 16 || s.L1.E2M.Entries != 4 {
		t.Errorf("halved L1 = %+v", s.L1)
	}
	if s.L2.E4K != (Config{Entries: 256, Ways: 4}) {
		t.Errorf("halved L2 4K = %+v, want 256 entries of 4 ways", s.L2.E4K)
	}
	if s.L2.E2M.Entries != 0 {
		t.Errorf("slicing an absent structure must keep it absent, got %d", s.L2.E2M.Entries)
	}
	if got := opteronDTLB().Partition(1); got != opteronDTLB() {
		t.Errorf("a sole owner's slice = %+v, want the whole stack", got)
	}
	// Three sharers: 32/3 fully associative entries, and 128 sets over 3
	// rounded down to 32 sets of the L2's 4 ways.
	s = opteronDTLB().Partition(3)
	if s.L1.E4K.Entries != 10 || s.L1.E2M.Entries != 2 || s.L2.E4K != (Config{Entries: 128, Ways: 4}) {
		t.Errorf("three-way slice = %+v", s)
	}
	// Slicing never drops a present structure to zero, and a
	// set-associative structure with fewer sets than sharers is sliced
	// like a fully associative one.
	tiny := Spec{L1: LevelSpec{E4K: Config{Entries: 1}, E2M: Config{Entries: 16, Ways: 4}}}
	if got := tiny.Partition(5).L1; got.E4K.Entries != 1 || got.E2M != (Config{Entries: 3, Ways: 3}) {
		t.Errorf("five-way slice of %+v = %+v", tiny.L1, got)
	}
	for _, share := range []int{2, 3, 4, 5, 8, 64} {
		if _, err := NewHierarchy(opteronDTLB().Partition(share)); err != nil {
			t.Errorf("Partition(%d) builds no hierarchy: %v", share, err)
		}
	}
	// An invalid geometry is left for NewHierarchy to report.
	bad := Spec{L1: LevelSpec{E4K: Config{Entries: 12, Ways: 8}}}
	if _, err := NewHierarchy(bad.Partition(2)); err == nil {
		t.Error("slicing repaired an invalid geometry")
	}
}

func TestCoverage(t *testing.T) {
	s := opteronDTLB()
	if got := s.Coverage(units.Size4K); got != int64(32+512)*4096 {
		t.Errorf("4K coverage = %d", got)
	}
	if got := s.Coverage(units.Size2M); got != 8*2*1024*1024 {
		t.Errorf("2M coverage = %d, want 16MB (the paper's Table 1 Opteron row)", got)
	}
}

func TestInvalidateShootdown(t *testing.T) {
	h := mustHierarchy(t, opteronDTLB())
	h.Fill(11, units.Size4K)
	h.Invalidate(11, units.Size4K)
	if got := h.Access(11, units.Size4K); got != Miss {
		t.Errorf("after shootdown = %v, want Miss", got)
	}
}

// TestFlush: shooting down every primed page empties both levels, the
// entries demoted into L2 included.
func TestFlush(t *testing.T) {
	h := mustHierarchy(t, opteronDTLB())
	for vpn := uint64(0); vpn < 100; vpn++ {
		h.Fill(vpn, units.Size4K)
	}
	for vpn := uint64(0); vpn < 100; vpn++ {
		h.Invalidate(vpn, units.Size4K)
	}
	for vpn := uint64(0); vpn < 100; vpn++ {
		if h.Access(vpn, units.Size4K) != Miss {
			t.Fatalf("vpn %d survived its shootdown", vpn)
		}
	}
}

// The effective capacity invariant: a working set of exactly L1+L2 entries
// accessed round-robin never misses after warmup (exclusive-ish two-level
// stack behaves as one big TLB).
func TestAggregateCapacity(t *testing.T) {
	h := mustHierarchy(t, Spec{
		L1: LevelSpec{E4K: Config{Entries: 4}},
		L2: LevelSpec{E4K: Config{Entries: 12}},
	})
	const ws = 16 // == 4 + 12
	for round := 0; round < 3; round++ {
		for vpn := uint64(0); vpn < ws; vpn++ {
			if h.Access(vpn, units.Size4K) == Miss {
				if round > 0 {
					t.Fatalf("round %d: vpn %d missed; working set == aggregate capacity should be resident", round, vpn)
				}
				h.Fill(vpn, units.Size4K)
			}
		}
	}
}
