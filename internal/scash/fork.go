package scash

import "hugeomp/internal/units"

// Fork returns an independent copy of the allocator: same bump pointer,
// free list, and block-size index, so the clone hands out exactly the
// addresses the parent would. Forked and cold allocators that see the same
// Alloc/Free sequence produce identical layouts — the determinism the
// snapshot layer relies on.
func (a *Allocator) Fork() *Allocator {
	a.mu.Lock()
	defer a.mu.Unlock()
	na := &Allocator{
		limit: a.limit,
		brk:   a.brk,
		used:  a.used,
		sizes: make(map[units.Addr]int64, len(a.sizes)),
	}
	if a.free != nil {
		na.free = append([]span(nil), a.free...)
	}
	for addr, sz := range a.sizes {
		na.sizes[addr] = sz
	}
	return na
}

// Fork returns an independent copy of the shared space: region descriptor,
// symbol table, allocator state, and seal bit. The physical frames behind
// the region belong to the forked PhysMem/page table that the caller forks
// alongside this space.
func (s *Space) Fork() *Space {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := &Space{
		region:  s.region,
		alloc:   s.alloc.Fork(),
		symbols: make(map[string]Symbol, len(s.symbols)),
		sealed:  s.sealed,
	}
	for name, sym := range s.symbols {
		ns.symbols[name] = sym
	}
	return ns
}
