package scash

import (
	"errors"
	"testing"

	"hugeomp/internal/mem"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

func TestRegionMapping(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	r, err := newRegion(phys, pt, 0x100000, 10*units.PageSize4K, units.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	end := r.base + units.Addr(r.length)
	for _, va := range []units.Addr{r.base, end - 1} {
		if _, err := pt.Translate(va); err != nil {
			t.Errorf("region address %#x not mapped: %v", va, err)
		}
	}
	for _, va := range []units.Addr{r.base - 1, end} {
		if _, err := pt.Translate(va); !errors.Is(err, pagetable.ErrNotMapped) {
			t.Errorf("address %#x outside the region: got %v, want ErrNotMapped", va, err)
		}
	}
	if _, err := pt.Access(0x100000+4096*5, true); err != nil {
		t.Errorf("region page not writable: %v", err)
	}
}

func TestRegionLargePages(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	_, err := newRegion(phys, pt, units.Addr(units.PageSize2M), 3*units.PageSize2M, units.Size2M)
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
	r, err := newRegion(phys, pt, 0, 100, units.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	if r.length != units.PageSize4K {
		t.Errorf("length = %d, want one page", r.length)
	}
}

func TestRegionMisalignedBase(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	if _, err := newRegion(phys, pt, 0x1001, units.PageSize4K, units.Size4K); err == nil {
		t.Error("misaligned base accepted")
	}
}
