package machine

import (
	"sync"

	"hugeomp/internal/pagetable"
)

// Fork returns an independent deep copy of the machine translating through
// pt, the forked page table of the same process. Model is a value copy;
// every context is cloned with its warmed TLB stacks, caches, translation
// cache, shootdown mailbox and counters intact.
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
	nm := &Machine{Model: m.Model, pt: pt}
	if len(m.contexts) == 0 {
		return nm
	}
	nm.contexts = make([]*Context, len(m.contexts))
	for i, c := range m.contexts {
		nc := &Context{
			ID: c.ID, Chip: c.Chip, Core: c.Core, Thread: c.Thread,
			machine: nm, pt: pt,
			itlb: c.itlb.Fork(), dtlb: c.dtlb.Fork(),
			l1: c.l1.Fork(), l2: c.l2.Fork(),
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
