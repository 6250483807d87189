// Package shmem provides the memory-mapped-file shared segment of the
// modified Omni/SCASH runtime: a Region of physical frames installed into the
// process page table at startup. SCASH maps its global data region through
// it, on 4 KB pages unless the page policy under test backs that region with
// hugetlbfs instead.
//
// The paper's runtime also passes intra-node messages through a mapped file
// with "up to 32" messages in flight (§3.3). That transport moves no
// simulated bytes here: omp charges its barriers and reductions in closed
// form, and mpi carries its control messages on buffered Go channels of the
// same depth.
package shmem

import (
	"fmt"

	"hugeomp/internal/mem"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

// Region is a shared segment backed by a memory-mapped file. The backing
// page size is configurable: the Omni/SCASH global data region is the one
// the paper moves to 2 MB pages, while the message-passing file "uses
// traditional small pages (4KB) and not large pages".
type Region struct {
	Base units.Addr
	Len  int64
	Size units.PageSize
}

// NewRegion allocates physical frames for a shared segment of length bytes
// (rounded up to the page size) and maps it at base in pt.
func NewRegion(phys *mem.PhysMem, pt *pagetable.Table, base units.Addr, length int64,
	size units.PageSize, prot pagetable.Prot) (*Region, error) {
	if uint64(base)%uint64(size.Bytes()) != 0 {
		return nil, fmt.Errorf("shmem: base %#x not %s aligned", base, size)
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
			err = pt.MapRetry(base+units.Addr(i*size.Bytes()), size, pfn, prot)
		}
		if err != nil {
			return nil, fmt.Errorf("shmem: region page %d/%d: %w", i+1, n, err)
		}
	}
	return &Region{Base: base, Len: length, Size: size}, nil
}

// Contains reports whether va falls inside the region.
func (r *Region) Contains(va units.Addr) bool {
	return va >= r.Base && va < r.Base+units.Addr(r.Len)
}

// End returns one past the last address of the region.
func (r *Region) End() units.Addr { return r.Base + units.Addr(r.Len) }
