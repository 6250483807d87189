package pagetable

import (
	"errors"
	"testing"
	"testing/quick"

	"hugeomp/internal/faultinject"
	"hugeomp/internal/units"
)

func TestMapTranslate4K(t *testing.T) {
	pt := New()
	va := units.Addr(0x400000)
	if err := pt.Map(va, units.Size4K, 42, ProtRW); err != nil {
		t.Fatal(err)
	}
	wr, err := pt.Translate(va + 123)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Entry.PFN != 42 || wr.Entry.Size != units.Size4K {
		t.Errorf("entry = %+v", wr.Entry)
	}
	if wr.MemRefs != 2 {
		t.Errorf("4KB walk refs = %d, want 2 (PGD + PTE)", wr.MemRefs)
	}
	if pa := PhysAddr(va+123, wr.Entry); pa != 42*4096+123 {
		t.Errorf("PhysAddr = %#x", pa)
	}
}

func TestMapTranslate2M(t *testing.T) {
	pt := New()
	va := units.Addr(0x40000000)
	if err := pt.Map(va, units.Size2M, 1024, ProtRW); err != nil {
		t.Fatal(err)
	}
	wr, err := pt.Translate(va + 0x12345)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Entry.Size != units.Size2M {
		t.Errorf("size = %v", wr.Entry.Size)
	}
	if wr.MemRefs != 1 {
		t.Errorf("2MB walk refs = %d, want 1 (PGD only) — the shorter walk is a core large-page benefit", wr.MemRefs)
	}
	if pa := PhysAddr(va+0x12345, wr.Entry); pa != 1024*4096+0x12345 {
		t.Errorf("PhysAddr = %#x", pa)
	}
}

func TestMisalignedMap(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1001, units.Size4K, 1, ProtRW); !errors.Is(err, ErrMisaligned) {
		t.Errorf("want ErrMisaligned, got %v", err)
	}
	if err := pt.Map(units.Addr(units.PageSize4K), units.Size2M, 512, ProtRW); !errors.Is(err, ErrMisaligned) {
		t.Errorf("want ErrMisaligned for unaligned 2MB va, got %v", err)
	}
	if err := pt.Map(0, units.Size2M, 5, ProtRW); !errors.Is(err, ErrMisaligned) {
		t.Errorf("want ErrMisaligned for unaligned 2MB pfn, got %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	pt := New()
	if err := pt.Map(0, units.Size2M, 0, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x1000, units.Size4K, 99, ProtRW); !errors.Is(err, ErrOverlap) {
		t.Errorf("4K inside 2M: want ErrOverlap, got %v", err)
	}
	if err := pt.Map(0, units.Size2M, 512, ProtRW); !errors.Is(err, ErrOverlap) {
		t.Errorf("2M on 2M: want ErrOverlap, got %v", err)
	}
	pt2 := New()
	if err := pt2.Map(0x1000, units.Size4K, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(0, units.Size2M, 512, ProtRW); !errors.Is(err, ErrOverlap) {
		t.Errorf("2M over 4K: want ErrOverlap, got %v", err)
	}
	if err := pt2.Map(0x1000, units.Size4K, 2, ProtRW); !errors.Is(err, ErrOverlap) {
		t.Errorf("4K on 4K: want ErrOverlap, got %v", err)
	}
}

func TestUnmap(t *testing.T) {
	pt := New()
	if err := pt.Map(0x2000, units.Size4K, 7, ProtRW); err != nil {
		t.Fatal(err)
	}
	e, err := pt.Unmap(0x2000, units.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	if e.PFN != 7 {
		t.Errorf("unmapped PFN = %d", e.PFN)
	}
	if _, err := pt.Translate(0x2000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("want ErrNotMapped after unmap, got %v", err)
	}
	if pt.Mapped4K() != 0 {
		t.Errorf("Mapped4K = %d", pt.Mapped4K())
	}
}

// TestProtectionTrap: Access refuses a write to a read-only page and allows
// a read of it, and allows both on a read-write page.
func TestProtectionTrap(t *testing.T) {
	pt := New()
	if err := pt.Map(0, units.Size4K, 3, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(units.Addr(units.PageSize4K), units.Size4K, 4, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Access(0x10, false); err != nil {
		t.Errorf("read should succeed: %v", err)
	}
	if _, err := pt.Access(0x10, true); !errors.Is(err, ErrProtViolation) {
		t.Errorf("write should trap: %v", err)
	}
	for _, write := range []bool{false, true} {
		if _, err := pt.Access(units.Addr(units.PageSize4K+0x10), write); err != nil {
			t.Errorf("access (write=%v) to a read-write page should succeed: %v", write, err)
		}
	}
}

func TestMappedBytesAccounting(t *testing.T) {
	pt := New()
	for i := 0; i < 10; i++ {
		va := units.Addr(int64(i) * units.PageSize4K)
		if err := pt.Map(va, units.Size4K, uint64(i), ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Map(units.Addr(units.PageSize2M*4), units.Size2M, 2048, ProtRW); err != nil {
		t.Fatal(err)
	}
	want := 10*units.PageSize4K + units.PageSize2M
	if got := pt.MappedBytes(); got != want {
		t.Errorf("MappedBytes = %d, want %d", got, want)
	}
}

// Property: mapping a random set of non-overlapping 4K pages and translating
// any address inside each page returns the page's PFN and offset.
func TestTranslateRoundTrip(t *testing.T) {
	f := func(pages []uint16, offs uint16) bool {
		pt := New()
		seen := map[uint64]uint64{}
		pfn := uint64(1)
		for _, p := range pages {
			vpn := uint64(p)
			if _, dup := seen[vpn]; dup {
				continue
			}
			va := units.Addr(vpn * uint64(units.PageSize4K))
			if err := pt.Map(va, units.Size4K, pfn, ProtRW); err != nil {
				return false
			}
			seen[vpn] = pfn
			pfn++
		}
		for vpn, want := range seen {
			va := units.Addr(vpn*uint64(units.PageSize4K) + uint64(offs)%4096)
			wr, err := pt.Translate(va)
			if err != nil || wr.Entry.PFN != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestUnmapProtectUnmappedTyped: operations on an unmapped page must fail
// with the typed ErrNotMapped — callers distinguish it from transient faults.
func TestUnmapProtectUnmappedTyped(t *testing.T) {
	pt := New()
	if _, err := pt.Unmap(0x5000, units.Size4K); !errors.Is(err, ErrNotMapped) {
		t.Errorf("Unmap of unmapped 4K: want ErrNotMapped, got %v", err)
	}
	if _, err := pt.Unmap(0, units.Size2M); !errors.Is(err, ErrNotMapped) {
		t.Errorf("Unmap of unmapped 2M: want ErrNotMapped, got %v", err)
	}
	// Size-mismatched unmaps are also typed, not silent.
	if err := pt.Map(0, units.Size2M, 0, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap(0, units.Size4K); !errors.Is(err, ErrNotMapped) {
		t.Errorf("4K unmap of 2M mapping: want ErrNotMapped, got %v", err)
	}
	pt2 := New()
	if err := pt2.Map(0x1000, units.Size4K, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := pt2.Unmap(0, units.Size2M); !errors.Is(err, ErrNotMapped) {
		t.Errorf("2M unmap of 4K mapping: want ErrNotMapped, got %v", err)
	}
}

// TestMapFaultInjection: an armed SitePTMap plan makes Map fail with the
// typed ErrTransient and leaves the table unchanged.
func TestMapFaultInjection(t *testing.T) {
	pt := New()
	pt.SetFaultPlan(faultinject.New(1).Enable(faultinject.SitePTMap, 1))
	err := pt.Map(0x3000, units.Size4K, 9, ProtRW)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient, got %v", err)
	}
	if pt.Mapped4K() != 0 {
		t.Fatal("failed Map mutated the table")
	}
	pt.SetFaultPlan(nil)
	if err := pt.Map(0x3000, units.Size4K, 9, ProtRW); err != nil {
		t.Fatalf("Map after disarm: %v", err)
	}
}

// TestMapRetryAbsorbsTransients: MapRetry succeeds through rate-based
// transient faults, counts the absorbed retries, and still propagates
// non-transient errors immediately.
func TestMapRetryAbsorbsTransients(t *testing.T) {
	pt := New()
	pt.SetFaultPlan(faultinject.New(7).Enable(faultinject.SitePTMap, 0.5))
	var retries uint64
	for i := 0; i < 64; i++ {
		va := units.Addr(int64(i) * units.PageSize4K)
		if err := pt.MapRetry(va, units.Size4K, uint64(i), ProtRW); err != nil {
			t.Fatalf("MapRetry(%#x): %v", va, err)
		}
	}
	retries = pt.MapRetries()
	if retries == 0 {
		t.Fatal("rate 0.5 over 64 maps absorbed zero retries — injection not exercised")
	}
	if pt.Mapped4K() != 64 {
		t.Fatalf("Mapped4K = %d, want 64", pt.Mapped4K())
	}
	// Non-transient errors are not retried (plan disarmed so the transient
	// draw, which precedes the overlap check, cannot interleave).
	pt.SetFaultPlan(nil)
	before := pt.MapRetries()
	if err := pt.MapRetry(0, units.Size4K, 999, ProtRW); !errors.Is(err, ErrOverlap) {
		t.Fatalf("want ErrOverlap, got %v", err)
	}
	if pt.MapRetries() != before {
		t.Fatal("overlap error consumed retries")
	}
}

// TestMapRetryDeterministic: the same seed absorbs the same number of
// retries — MapRetry is part of the replayable-counters contract.
func TestMapRetryDeterministic(t *testing.T) {
	run := func() uint64 {
		pt := New()
		pt.SetFaultPlan(faultinject.New(0xabc).Enable(faultinject.SitePTMap, 0.4))
		for i := 0; i < 32; i++ {
			if err := pt.MapRetry(units.Addr(int64(i)*units.PageSize4K), units.Size4K, uint64(i), ProtRW); err != nil {
				t.Fatalf("MapRetry: %v", err)
			}
		}
		return pt.MapRetries()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("retry counts differ across replays: %d vs %d", a, b)
	}
}

func TestGenerationAdvancesOnMutation(t *testing.T) {
	pt := New()
	g0 := pt.Gen()
	if g0 == 0 {
		t.Fatal("generation 0 is reserved; a fresh table must start above it")
	}
	if err := pt.Map(0, units.Size4K, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	g1 := pt.Gen()
	if g1 <= g0 {
		t.Fatalf("Map did not advance generation: %d -> %d", g0, g1)
	}
	if _, err := pt.Translate(0); err != nil {
		t.Fatal(err)
	}
	if pt.Gen() != g1 {
		t.Fatal("Translate must not advance the generation")
	}
	if _, err := pt.Unmap(0, units.Size4K); err != nil {
		t.Fatal(err)
	}
	if pt.Gen() <= g1 {
		t.Fatalf("Unmap did not advance generation: %d -> %d", g1, pt.Gen())
	}
}
