package scash

import (
	"fmt"

	"hugeomp/internal/mem"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

// region is the shared data segment of the modified Omni/SCASH runtime:
// physical frames installed into the process page table at startup, as a
// memory-mapped file is. Its page size is the paper's knob: 4 KB for a plain
// mapped file, 2 MB for a hugetlbfs one.
type region struct {
	base   units.Addr
	length int64
	size   units.PageSize
}

// newRegion allocates physical frames for a read-write shared segment of
// length bytes (rounded up to the page size) and maps it at base in pt.
func newRegion(phys *mem.PhysMem, pt *pagetable.Table, base units.Addr, length int64,
	size units.PageSize) (region, error) {
	if uint64(base)%uint64(size.Bytes()) != 0 {
		return region{}, fmt.Errorf("scash: region base %#x not %s aligned", base, size)
	}
	length = units.AlignUp(length, size.Bytes())
	n := length / size.Bytes()
	for i := int64(0); i < n; i++ {
		var pfn uint64
		var err error
		if size == units.Size2M {
			pfn, err = phys.Alloc2M()
		} else {
			pfn, err = phys.Alloc4K()
		}
		if err == nil {
			// MapRetry absorbs injected transient map failures; a real
			// conflict (overlap, misalignment) still surfaces immediately.
			err = pt.MapRetry(base+units.Addr(i*size.Bytes()), size, pfn, pagetable.ProtRW)
		}
		if err != nil {
			return region{}, fmt.Errorf("scash: region page %d/%d: %w", i+1, n, err)
		}
	}
	return region{base: base, length: length, size: size}, nil
}
