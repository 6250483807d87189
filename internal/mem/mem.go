// Package mem models the physical memory of the simulated node: a pool of
// page frames in two size classes (4 KB and 2 MB). The page-table and
// hugetlbfs layers allocate frames from here; the allocator tracks usage so
// footprint accounting (paper Table 2) is exact.
//
// Physical frame numbers (PFNs) are always expressed in 4 KB units, so a
// 2 MB frame occupies 512 consecutive 4 KB PFNs, exactly as on x86-64 where a
// large page must be 2 MB-aligned in physical memory.
package mem

import (
	"errors"
	"fmt"
	"sync"

	"hugeomp/internal/units"
)

// FramesPer2M is the number of 4 KB frames covered by one 2 MB frame.
const FramesPer2M = int(units.PageSize2M / units.PageSize4K)

// ErrOutOfMemory is returned when the physical pool is exhausted.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// PhysMem is a physical memory of a fixed size from which 4 KB and 2 MB
// frames are carved. 2 MB frames are naturally aligned. It is safe for
// concurrent use.
type PhysMem struct {
	mu sync.Mutex

	totalBytes int64
	next4K     uint64 // bump pointer for small frames (in 4 KB PFN units)
	next2M     uint64 // bump pointer for large frames, grows downward
	free4K     []uint64
	free2M     []uint64

	used4K int // live small frames
	used2M int // live large frames
}

// New creates a physical memory of size bytes (rounded down to a 2 MB
// multiple). Small frames grow from the bottom, large frames from the top, so
// neither fragments the other — mirroring a reserved hugetlbfs pool.
func New(bytes int64) *PhysMem {
	bytes = bytes &^ (units.PageSize2M - 1)
	if bytes < units.PageSize2M {
		bytes = units.PageSize2M
	}
	return &PhysMem{
		totalBytes: bytes,
		next4K:     0,
		next2M:     uint64(bytes / units.PageSize4K),
	}
}

// TotalBytes returns the configured physical size.
func (p *PhysMem) TotalBytes() int64 { return p.totalBytes }

// Alloc4K allocates one 4 KB frame and returns its PFN. When the small free
// list and the bump region are both exhausted, it splits a freed 2 MB frame
// into 4 KB frames — the frames a rolled-back hugetlbfs preallocation handed
// back — so a 4 KB fallback can still use them.
func (p *PhysMem) Alloc4K() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free4K) == 0 && p.next4K+1 > p.next2M {
		n := len(p.free2M)
		if n == 0 {
			return 0, ErrOutOfMemory
		}
		big := p.free2M[n-1]
		p.free2M = p.free2M[:n-1]
		// Descending, so the pops below hand out big, big+1, ... in order.
		for i := uint64(FramesPer2M); i > 0; i-- {
			p.free4K = append(p.free4K, big+i-1)
		}
	}
	if n := len(p.free4K); n > 0 {
		pfn := p.free4K[n-1]
		p.free4K = p.free4K[:n-1]
		p.used4K++
		return pfn, nil
	}
	pfn := p.next4K
	p.next4K++
	p.used4K++
	return pfn, nil
}

// Alloc2M allocates one naturally aligned 2 MB frame and returns the PFN of
// its first 4 KB sub-frame.
func (p *PhysMem) Alloc2M() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free2M); n > 0 {
		pfn := p.free2M[n-1]
		p.free2M = p.free2M[:n-1]
		p.used2M++
		return pfn, nil
	}
	if p.next2M < uint64(FramesPer2M) || p.next2M-uint64(FramesPer2M) < p.next4K {
		return 0, ErrOutOfMemory
	}
	p.next2M -= uint64(FramesPer2M)
	p.used2M++
	return p.next2M, nil
}

// Free4K returns a 4 KB frame to the pool.
func (p *PhysMem) Free4K(pfn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free4K = append(p.free4K, pfn)
	p.used4K--
}

// Free2M returns a 2 MB frame to the pool.
func (p *PhysMem) Free2M(pfn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free2M = append(p.free2M, pfn)
	p.used2M--
}

// Used4K reports the number of live 4 KB frames.
func (p *PhysMem) Used4K() int { p.mu.Lock(); defer p.mu.Unlock(); return p.used4K }

// Used2M reports the number of live 2 MB frames.
func (p *PhysMem) Used2M() int { p.mu.Lock(); defer p.mu.Unlock(); return p.used2M }

// UsedBytes reports the bytes of live frames in both classes.
func (p *PhysMem) UsedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.used4K)*units.PageSize4K + int64(p.used2M)*units.PageSize2M
}

// String summarises pool usage.
func (p *PhysMem) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	used := int64(p.used4K)*units.PageSize4K + int64(p.used2M)*units.PageSize2M
	return fmt.Sprintf("physmem %s used %s (%d small, %d large frames)",
		units.HumanBytes(p.totalBytes), units.HumanBytes(used), p.used4K, p.used2M)
}
