// Package scash reproduces the slice of the Omni/SCASH cluster-OpenMP system
// the paper builds on (§3.3):
//
//   - the Omni compiler's transformation of global variables into pointers
//     into a shared mapped region (Space and its symbol table);
//   - the internal memory allocator that carves global and dynamic memory
//     out of that region at process startup (Allocator).
//
// SCASH's eager-release-consistency (ERC) software-DSM protocol, driven by
// page protections, is not modelled: the paper's intra-node mode disables
// it, and "the native hardware virtual memory run-time system is used to
// manage page coherency" (§3.3).
//
// The paper's modification is exactly one knob here: whether the shared data
// region is backed by a plain mapped file (4 KB pages) or by a hugetlbfs
// file (2 MB pages preallocated at startup).
package scash

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hugeomp/internal/hugetlbfs"
	"hugeomp/internal/mem"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

// Errors.
var (
	ErrNoSpace     = errors.New("scash: shared region exhausted")
	ErrDupSymbol   = errors.New("scash: global already registered")
	ErrBadFree     = errors.New("scash: free of unknown address")
	ErrSealed      = errors.New("scash: globals sealed after startup")
	ErrUnknownName = errors.New("scash: unknown global")
)

// Symbol is one transformed global: Omni rewrites `double a[N]` into a
// pointer that the runtime points at shared memory at startup.
type Symbol struct {
	Name string
	Base units.Addr
	Size int64
}

// Config configures a shared Space.
type Config struct {
	Phys *mem.PhysMem
	PT   *pagetable.Table
	Base units.Addr // region base virtual address (2 MB aligned)
	Size int64      // region length

	PageSize units.PageSize // backing page size for application data
	Hugetlb  *hugetlbfs.FS  // required when PageSize == Size2M
}

// Space is the process-shared data region: the target of the Omni global
// transformation and the arena of the internal allocator.
type Space struct {
	mu      sync.Mutex
	region  region
	alloc   *Allocator
	symbols map[string]Symbol
	sealed  bool
}

// NewSpace maps the shared region and prepares the allocator. With
// PageSize == Size2M the region is a hugetlbfs file created (and therefore
// preallocated) at startup, as in the paper; otherwise it is an ordinary
// 4 KB-page mapped file.
func NewSpace(cfg Config) (*Space, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("scash: non-positive region size %d", cfg.Size)
	}
	if uint64(cfg.Base)%uint64(units.PageSize2M) != 0 {
		return nil, fmt.Errorf("scash: region base %#x not 2MB aligned", cfg.Base)
	}
	var r region
	switch cfg.PageSize {
	case units.Size2M:
		if cfg.Hugetlb == nil {
			return nil, fmt.Errorf("scash: 2MB region requires a hugetlbfs mount")
		}
		length := units.AlignUp(cfg.Size, units.PageSize2M)
		f, err := cfg.Hugetlb.Create(fmt.Sprintf("scash-%#x", cfg.Base), length)
		if err != nil {
			return nil, fmt.Errorf("scash: backing file: %w", err)
		}
		if err := f.Map(cfg.PT, cfg.Base, pagetable.ProtRW); err != nil {
			return nil, err
		}
		r = region{base: cfg.Base, length: length, size: units.Size2M}
	default:
		var err error
		if r, err = newRegion(cfg.Phys, cfg.PT, cfg.Base, cfg.Size, units.Size4K); err != nil {
			return nil, err
		}
	}
	return &Space{
		region:  r,
		alloc:   NewAllocator(r.base, r.length),
		symbols: make(map[string]Symbol),
	}, nil
}

// NewSpaceLazy builds a Space over an address range WITHOUT installing any
// mappings: the pages are demand-faulted by an external manager (the
// transparent-huge-page extension). The nominal page size is 4 KB; actual
// mappings may be promoted to 2 MB behind the process's back.
func NewSpaceLazy(base units.Addr, size int64) (*Space, error) {
	if size <= 0 {
		return nil, fmt.Errorf("scash: non-positive region size %d", size)
	}
	if uint64(base)%uint64(units.PageSize2M) != 0 {
		return nil, fmt.Errorf("scash: region base %#x not 2MB aligned", base)
	}
	size = units.AlignUp(size, units.PageSize2M)
	return &Space{
		region:  region{base: base, length: size, size: units.Size4K},
		alloc:   NewAllocator(base, size),
		symbols: make(map[string]Symbol),
	}, nil
}

// PageSize returns the backing page size of application data.
func (s *Space) PageSize() units.PageSize { return s.region.size }

// RegisterGlobal performs the Omni transformation for one global of the
// given size: it allocates shared memory and records the symbol. Globals
// must all be registered before Seal (process startup), matching
// Omni/SCASH's allocate-everything-at-startup behaviour.
func (s *Space) RegisterGlobal(name string, size int64) (Symbol, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return Symbol{}, ErrSealed
	}
	if _, dup := s.symbols[name]; dup {
		return Symbol{}, fmt.Errorf("%w: %q", ErrDupSymbol, name)
	}
	base, err := s.alloc.Alloc(size)
	if err != nil {
		return Symbol{}, fmt.Errorf("scash: global %q (%s): %w", name, units.HumanBytes(size), err)
	}
	sym := Symbol{Name: name, Base: base, Size: size}
	s.symbols[name] = sym
	return sym, nil
}

// Seal marks the end of startup; later RegisterGlobal calls fail. Malloc
// remains available (SCASH also routes dynamic allocation through the shared
// region).
func (s *Space) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
}

// Lookup returns a registered global.
func (s *Space) Lookup(name string) (Symbol, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sym, ok := s.symbols[name]
	if !ok {
		return Symbol{}, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	return sym, nil
}

// Malloc allocates dynamic shared memory.
func (s *Space) Malloc(size int64) (units.Addr, error) {
	return s.alloc.Alloc(size)
}

// Free releases a Malloc'd block.
func (s *Space) Free(addr units.Addr) error { return s.alloc.Free(addr) }

// UsedBytes reports allocator usage (paper Table 2's data footprint).
func (s *Space) UsedBytes() int64 { return s.alloc.Used() }

// Allocator is the SCASH internal allocator: a 4 KB-aligned first-fit
// allocator with an address-ordered free list and coalescing, carving blocks
// out of the shared region.
type Allocator struct {
	mu    sync.Mutex
	limit units.Addr
	brk   units.Addr // bump pointer; blocks above came from the free list
	used  int64

	free  []span // address-ordered, coalesced
	sizes map[units.Addr]int64
}

type span struct {
	base units.Addr
	size int64
}

// allocAlign keeps every block page-aligned so distinct arrays never share a
// 4 KB page (matching how Omni lays out transformed globals).
const allocAlign = units.PageSize4K

// NewAllocator creates an allocator over [base, base+size).
func NewAllocator(base units.Addr, size int64) *Allocator {
	return &Allocator{
		limit: base + units.Addr(size),
		brk:   base,
		sizes: make(map[units.Addr]int64),
	}
}

// Alloc returns a page-aligned block of at least size bytes.
func (a *Allocator) Alloc(size int64) (units.Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("scash: non-positive allocation %d", size)
	}
	size = units.AlignUp(size, allocAlign)
	a.mu.Lock()
	defer a.mu.Unlock()
	// First fit in the free list.
	for i, sp := range a.free {
		if sp.size >= size {
			addr := sp.base
			if sp.size == size {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{base: sp.base + units.Addr(size), size: sp.size - size}
			}
			a.sizes[addr] = size
			a.used += size
			return addr, nil
		}
	}
	// Bump.
	if a.brk+units.Addr(size) > a.limit {
		return 0, fmt.Errorf("%w: need %s, %s left", ErrNoSpace,
			units.HumanBytes(size), units.HumanBytes(int64(a.limit-a.brk)))
	}
	addr := a.brk
	a.brk += units.Addr(size)
	a.sizes[addr] = size
	a.used += size
	return addr, nil
}

// Free returns a block to the free list, coalescing with neighbours.
func (a *Allocator) Free(addr units.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	delete(a.sizes, addr)
	a.used -= size
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base >= addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{base: addr, size: size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].base+units.Addr(a.free[i].size) == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+units.Addr(a.free[i-1].size) == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// Used returns live allocated bytes.
func (a *Allocator) Used() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.used }
