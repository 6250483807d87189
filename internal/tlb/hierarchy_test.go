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
	if got := h.Access(5, units.Size4K, false); got != Miss {
		t.Fatalf("first access = %v, want Miss", got)
	}
	h.Fill(5, units.Size4K, true)
	if got := h.Access(5, units.Size4K, false); got != HitL1 {
		t.Fatalf("after fill = %v, want HitL1", got)
	}
}

func TestHierarchyL2Promotion(t *testing.T) {
	h := mustHierarchy(t, opteronDTLB())
	// Fill 33 pages: page 0 is evicted from the 32-entry L1 into L2.
	for vpn := uint64(0); vpn < 33; vpn++ {
		h.Fill(vpn, units.Size4K, true)
	}
	got := h.Access(0, units.Size4K, false)
	if got != HitL2 {
		t.Fatalf("evicted page = %v, want HitL2", got)
	}
	// Promotion: now it is an L1 hit.
	if got := h.Access(0, units.Size4K, false); got != HitL1 {
		t.Fatalf("after promotion = %v, want HitL1", got)
	}
}

func TestOpteronNo2ML2(t *testing.T) {
	// The Opteron L2 DTLB holds no 2MB entries: filling 9 large pages must
	// evict one entirely (L1 capacity 8, no L2 backstop).
	h := mustHierarchy(t, opteronDTLB())
	for vpn := uint64(0); vpn < 9; vpn++ {
		h.Fill(vpn, units.Size2M, true)
	}
	misses := 0
	for vpn := uint64(0); vpn < 9; vpn++ {
		if h.Access(vpn, units.Size2M, false) == Miss {
			misses++
		}
	}
	if misses == 0 {
		t.Error("expected at least one 2MB miss: Opteron has only 8 large-page entries and no L2 backstop")
	}
}

func TestSizeClassesIndependent(t *testing.T) {
	h := mustHierarchy(t, opteronDTLB())
	h.Fill(7, units.Size4K, true)
	if got := h.Access(7, units.Size2M, false); got != Miss {
		t.Errorf("2M probe of 4K-filled vpn = %v, want Miss (classes are separate arrays)", got)
	}
}

func TestHalve(t *testing.T) {
	s := opteronDTLB().Halve()
	if s.L1.E4K.Entries != 16 || s.L1.E2M.Entries != 4 {
		t.Errorf("halved L1 = %+v", s.L1)
	}
	if s.L2.E4K.Entries != 256 {
		t.Errorf("halved L2 4K = %d, want 256", s.L2.E4K.Entries)
	}
	if s.L2.E2M.Entries != 0 {
		t.Errorf("halving an absent structure must keep it absent, got %d", s.L2.E2M.Entries)
	}
	// Halving never drops a present structure to zero.
	tiny := Spec{L1: LevelSpec{E4K: Config{Entries: 1}}}
	if got := tiny.Halve().L1.E4K.Entries; got != 1 {
		t.Errorf("halve(1) = %d, want 1", got)
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
	h.Fill(11, units.Size4K, true)
	h.Invalidate(11, units.Size4K)
	if got := h.Access(11, units.Size4K, false); got != Miss {
		t.Errorf("after shootdown = %v, want Miss", got)
	}
}

func TestFlush(t *testing.T) {
	h := mustHierarchy(t, opteronDTLB())
	for vpn := uint64(0); vpn < 100; vpn++ {
		h.Fill(vpn, units.Size4K, true)
	}
	h.Flush()
	for vpn := uint64(0); vpn < 100; vpn++ {
		if h.Access(vpn, units.Size4K, false) != Miss {
			t.Fatalf("vpn %d survived flush", vpn)
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
			if h.Access(vpn, units.Size4K, false) == Miss {
				if round > 0 {
					t.Fatalf("round %d: vpn %d missed; working set == aggregate capacity should be resident", round, vpn)
				}
				h.Fill(vpn, units.Size4K, true)
			}
		}
	}
}
