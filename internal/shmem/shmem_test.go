package shmem

import (
	"testing"

	"hugeomp/internal/mem"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

func TestRegionMapping(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	r, err := NewRegion(phys, pt, 0x100000, 10*units.PageSize4K, units.Size4K, pagetable.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(0x100000) || !r.Contains(r.End()-1) || r.Contains(r.End()) {
		t.Error("Contains boundaries wrong")
	}
	if _, err := pt.Access(0x100000+4096*5, true); err != nil {
		t.Errorf("region page not writable: %v", err)
	}
}

func TestRegionLargePages(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	_, err := NewRegion(phys, pt, units.Addr(units.PageSize2M), 3*units.PageSize2M, units.Size2M, pagetable.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Mapped2M() != 3 {
		t.Errorf("Mapped2M = %d, want 3", pt.Mapped2M())
	}
}

func TestRegionRoundsUp(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	r, err := NewRegion(phys, pt, 0, 100, units.Size4K, pagetable.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len != units.PageSize4K {
		t.Errorf("Len = %d, want one page", r.Len)
	}
}

func TestRegionMisalignedBase(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	if _, err := NewRegion(phys, pt, 0x1001, units.PageSize4K, units.Size4K, pagetable.ProtRW); err == nil {
		t.Error("misaligned base accepted")
	}
}
