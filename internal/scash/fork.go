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

// Fork returns an independent copy of the shared space: symbol table,
// registration order, allocator state, and seal bit. The region descriptor
// is plain data (base, length, page size) and is copied by value; the
// physical frames behind it belong to the forked PhysMem/page table that the
// caller forks alongside this space.
func (s *Space) Fork() *Space {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := &Space{
		alloc:   s.alloc.Fork(),
		symbols: make(map[string]Symbol, len(s.symbols)),
		sealed:  s.sealed,
	}
	if s.region != nil {
		r := *s.region
		ns.region = &r
	}
	for name, sym := range s.symbols {
		ns.symbols[name] = sym
	}
	if s.order != nil {
		ns.order = append([]string(nil), s.order...)
	}
	return ns
}
