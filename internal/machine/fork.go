package machine

import (
	"sync"

	"hugeomp/internal/cache"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/tlb"
)

// Fork returns an independent deep copy of the machine translating through
// pt, the forked page table of the same process. Model and Sharing are value
// copies; every context is cloned with its warmed TLB stacks, caches,
// translation cache, shootdown mailbox and counters intact. Sharing topology
// is preserved: contexts that shared a TLB/cache/lock in the parent share a
// single forked instance in the clone (identity-mapped, so ShareTrue forks
// keep co-scheduled contexts behind one lock), and the bus — when present —
// is forked with attach order, transaction counters and shard generations
// carried over, so private-line fast-path stamps stay valid.
//
// Two caveats, both by design:
//
//   - OnFault handlers are copied as-is. They are closures over the parent
//     world (SCASH space, THP manager), so any caller that installs handlers
//     must re-wire them on the fork before simulating — exactly what
//     core.System does when a forked system builds its runtime.
//   - Fault plans are not part of the machine; the page table fork likewise
//     drops its plan (occurrence counters make a shared plan order-dependent).
//
// Call only at a quiescent point: no simulated threads running, no shootdowns
// in flight beyond the queued mailbox entries (which are cloned).
func (m *Machine) Fork(pt *pagetable.Table) *Machine {
	nm := &Machine{Model: m.Model, Sharing: m.Sharing, pt: pt}
	if len(m.contexts) == 0 {
		return nm
	}

	// Identity maps preserve the sharing topology of ShareTrue machines.
	cacheMap := map[*cache.Cache]*cache.Cache{}
	forkCache := func(c *cache.Cache) *cache.Cache {
		if c == nil {
			return nil
		}
		if nc, ok := cacheMap[c]; ok {
			return nc
		}
		nc := c.Fork()
		cacheMap[c] = nc
		return nc
	}
	tlbMap := map[*tlb.Hierarchy]*tlb.Hierarchy{}
	forkTLB := func(h *tlb.Hierarchy) *tlb.Hierarchy {
		if h == nil {
			return nil
		}
		if nh, ok := tlbMap[h]; ok {
			return nh
		}
		nh := h.Fork()
		tlbMap[h] = nh
		return nh
	}
	muMap := map[*sync.Mutex]*sync.Mutex{}
	forkMu := func(mu *sync.Mutex) *sync.Mutex {
		if mu == nil {
			return nil
		}
		if n, ok := muMap[mu]; ok {
			return n
		}
		n := &sync.Mutex{}
		muMap[mu] = n
		return n
	}

	if m.bus != nil {
		// Bus.Fork walks the attach order, so every bus-attached cache lands
		// in cacheMap before the context loop asks for it.
		nm.bus = m.bus.Fork(forkCache)
	}

	nm.contexts = make([]*Context, len(m.contexts))
	for i, c := range m.contexts {
		nc := &Context{
			ID: c.ID, Chip: c.Chip, Core: c.Core, Thread: c.Thread,
			machine: nm, pt: pt,
			itlb: forkTLB(c.itlb), dtlb: forkTLB(c.dtlb),
			l1: forkCache(c.l1), l2: forkCache(c.l2),
			coreMu:     forkMu(c.coreMu),
			l2Mu:       forkMu(c.l2Mu),
			costs:      &nm.Model.Costs,
			hasSibling: c.hasSibling,
			smtFlush:   c.smtFlush,
			OnFault:    c.OnFault,
			dataHint:   c.dataHint, fetchHint: c.fetchHint,
			lastFetchBase: c.lastFetchBase,
			lastFetchMask: c.lastFetchMask,
			fetchCacheOK:  c.fetchCacheOK,
			lastMissLine:  c.lastMissLine,
			lastMissValid: c.lastMissValid,
			xlat:          append([]xlatSlot(nil), c.xlat...),
			xlatGen:       c.xlatGen,
			Ctr:           c.Ctr,
		}
		// Scratch buffers stay nil: they are reallocated on first use and
		// carry no observable state.
		if len(c.pending) > 0 {
			nc.pending = append([]shootReq(nil), c.pending...)
		}
		nc.shootFlag.Store(c.shootFlag.Load())
		nm.contexts[i] = nc
	}
	return nm
}

// Snapshot captures the machine and its page table as an immutable template
// that Fork stamps out independent copies of. The capture itself forks once,
// so the parent machine may keep running (or be discarded) without affecting
// the snapshot; the frozen copy is never simulated on.
type Snapshot struct {
	mu     sync.Mutex
	frozen *Machine
	pt     *pagetable.Table
}

// Snapshot freezes the machine's current warmed state. Call at a quiescent
// point (see Fork).
func (m *Machine) Snapshot() *Snapshot {
	fpt := m.pt.Fork()
	return &Snapshot{frozen: m.Fork(fpt), pt: fpt}
}

// Fork stamps out an independent machine plus page table from the frozen
// template. Safe to call concurrently (sweep drivers fork under
// internal/par); forks never observe each other's writes — the page-table
// COW barrier privatizes PTE frames on first mutation, and every other
// structure is deep-copied.
func (s *Snapshot) Fork() (*Machine, *pagetable.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pt := s.pt.Fork()
	return s.frozen.Fork(pt), pt
}
