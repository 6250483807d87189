// Package pagetable implements the per-process radix page table described in
// the paper (its Figure 2, after Gorman): on x86-64 Linux of that era the
// Page Global Directory (PGD) points directly at page frames holding Page
// Table Entries (PTEs) — there is no middle directory — and the virtual
// address is split into a PGD index, a PTE index and an in-page offset.
//
// A 2 MB large-page mapping terminates at the PGD level, so its page walk is
// one memory reference shorter than the two-reference walk of a 4 KB page.
// The Translate result reports exactly how many memory references the walk
// performed; the machine layer converts that into cycles.
package pagetable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hugeomp/internal/faultinject"
	"hugeomp/internal/units"
)

// Prot is a page protection mask, fixed when the page is mapped: code pages
// are read-only, data pages read-write. Every mapping is readable. (SCASH's
// page-protection coherence protocol, which changes protections at run
// time, is off in the paper's intra-node mode and is not modelled.)
type Prot uint8

const (
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtRW         = ProtRead | ProtWrite
)

// Fault kinds raised by Access.
var (
	ErrNotMapped     = errors.New("pagetable: address not mapped")
	ErrProtViolation = errors.New("pagetable: protection violation")
	ErrOverlap       = errors.New("pagetable: mapping overlaps existing mapping")
	ErrMisaligned    = errors.New("pagetable: misaligned mapping")
	// ErrTransient is a retryable map failure (the kernel's "try again" paths:
	// allocation of the PTE frame raced, memory momentarily tight). Only fault
	// injection raises it; MapRetry absorbs it with bounded retries.
	ErrTransient = errors.New("pagetable: transient map failure")
)

const (
	ptesPerFrame = 512 // one 4 KB frame of 8-byte PTEs
	pgdSpan      = units.PageSize2M
)

// Entry describes one resolved translation.
type Entry struct {
	PFN  uint64 // physical frame number in 4 KB units
	Size units.PageSize
	Prot Prot
}

// WalkResult reports the cost of resolving a translation.
type WalkResult struct {
	MemRefs int // memory references performed by the walk
	Entry   Entry
}

type pgdEntry struct {
	large bool
	// large mapping
	pfn  uint64
	prot Prot
	// small mappings. After Fork the frame (and the entry itself) may be
	// aliased by several tables; shared marks that state, and every mutation
	// must first clone the entry into the writing table through ensureOwned,
	// the copy-on-write barrier. simlint's cowshared analyzer enforces that
	// writes to ptes happen only inside //simlint:cowbarrier functions.
	//
	//simlint:cowshared
	ptes   *[ptesPerFrame]pte
	used   int  // live PTEs; the frame is freed when it reaches zero
	shared bool // entry is (or was) aliased by a forked table
}

// pte is one page table entry, packed as on x86-64: the frame number above
// bit 12 and the protection bits below it. Every mapping is readable
// (Map refuses one that is not), so a mapped entry is never zero and the
// zero value means "not present".
type pte uint64

const ptePFNShift = units.PageShift4K

func makePTE(pfn uint64, prot Prot) pte { return pte(pfn<<ptePFNShift | uint64(prot)) }

func (p pte) present() bool { return p != 0 }
func (p pte) pfn() uint64   { return uint64(p) >> ptePFNShift }
func (p pte) prot() Prot    { return Prot(p & (1<<ptePFNShift - 1)) }

// Table is one process's page table. It is safe for concurrent translation;
// mapping operations take the write lock.
//
// The PGD is a flat slice for the low address range (the simulated process
// layout lives below 16 GB) with a map fallback for arbitrary high
// addresses; page walks are the simulator's hottest slow path and the slice
// lookup keeps them cheap.
type Table struct {
	mu      sync.RWMutex
	pgdLow  []*pgdEntry // indices below lowPGDs
	pgdHigh map[uint64]*pgdEntry

	mapped4K atomic.Int64
	mapped2M atomic.Int64

	fault      *faultinject.Plan // nil = no injection
	mapRetries atomic.Uint64     // transient Map failures absorbed by MapRetry
}

// lowPGDs covers virtual addresses below 16 GB with the slice-indexed PGD.
const lowPGDs = uint64((16 << 30) / pgdSpan)

// New creates an empty page table.
func New() *Table {
	return &Table{
		pgdLow:  make([]*pgdEntry, lowPGDs),
		pgdHigh: make(map[uint64]*pgdEntry),
	}
}

// entry returns the PGD entry for index gi, or nil.
func (t *Table) entry(gi uint64) *pgdEntry {
	if gi < lowPGDs {
		return t.pgdLow[gi]
	}
	return t.pgdHigh[gi]
}

// setEntry installs or clears the PGD entry for index gi.
func (t *Table) setEntry(gi uint64, e *pgdEntry) {
	if gi < lowPGDs {
		t.pgdLow[gi] = e
		return
	}
	if e == nil {
		delete(t.pgdHigh, gi)
		return
	}
	t.pgdHigh[gi] = e
}

func pgdIndex(va units.Addr) uint64 { return uint64(va) >> units.PageShift2M }
func pteIndex(va units.Addr) uint64 {
	return (uint64(va) >> units.PageShift4K) % ptesPerFrame
}

// Map installs a mapping of one page of the given size at va. va must be
// size-aligned and must not overlap an existing mapping. pfn is in 4 KB
// units; for a 2 MB page it must be 512-aligned (naturally aligned frame).
func (t *Table) Map(va units.Addr, size units.PageSize, pfn uint64, prot Prot) error {
	return t.mapAttempt(va, size, pfn, prot, 0)
}

// mapAttempt is Map with an attempt index folded into the fault-decision key:
// the target VA keeps concurrent mappers schedule-independent, the attempt
// number gives each MapRetry round a fresh draw so a faulted VA is not
// faulted forever.
func (t *Table) mapAttempt(va units.Addr, size units.PageSize, pfn uint64, prot Prot, attempt uint64) error {
	if uint64(va)&uint64(size.Mask()) != 0 {
		return fmt.Errorf("%w: va %#x for %s page", ErrMisaligned, va, size)
	}
	if prot&ProtRead == 0 {
		return fmt.Errorf("%w: unreadable mapping at %#x", ErrProtViolation, va)
	}
	key := uint64(va) ^ uint64(size) ^ attempt*0x9e3779b97f4a7c15
	if t.fault.ShouldKey(faultinject.SitePTMap, key) {
		return fmt.Errorf("%w: va %#x attempt %d (injected)", ErrTransient, va, attempt)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	gi := pgdIndex(va)
	e := t.entry(gi)
	if size == units.Size2M {
		if pfn%uint64(ptesPerFrame) != 0 {
			return fmt.Errorf("%w: pfn %#x for 2MB frame", ErrMisaligned, pfn)
		}
		if e != nil {
			return fmt.Errorf("%w: 2MB at %#x", ErrOverlap, va)
		}
		t.setEntry(gi, &pgdEntry{large: true, pfn: pfn, prot: prot})
		t.mapped2M.Add(1)
		return nil
	}
	if e == nil {
		e = &pgdEntry{ptes: new([ptesPerFrame]pte)}
		t.setEntry(gi, e)
	} else if e.large {
		return fmt.Errorf("%w: 4KB inside 2MB at %#x", ErrOverlap, va)
	}
	pi := pteIndex(va)
	if e.ptes[pi].present() {
		return fmt.Errorf("%w: 4KB at %#x", ErrOverlap, va)
	}
	e = t.ensureOwned(gi, e)
	t.writePTE(e, pi, makePTE(pfn, prot))
	e.used++
	t.mapped4K.Add(1)
	return nil
}

// Unmap removes the mapping of the page of the given size at va and returns
// its entry (so the caller can free the physical frame).
func (t *Table) Unmap(va units.Addr, size units.PageSize) (Entry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	gi := pgdIndex(va)
	e := t.entry(gi)
	if e == nil {
		return Entry{}, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	if size == units.Size2M {
		if !e.large {
			return Entry{}, fmt.Errorf("%w: no 2MB mapping at %#x", ErrNotMapped, va)
		}
		ent := Entry{PFN: e.pfn, Size: units.Size2M, Prot: e.prot}
		t.setEntry(gi, nil)
		t.mapped2M.Add(-1)
		return ent, nil
	}
	if e.large {
		return Entry{}, fmt.Errorf("%w: 2MB mapping at %#x, not 4KB", ErrNotMapped, va)
	}
	pi := pteIndex(va)
	p := e.ptes[pi]
	if !p.present() {
		return Entry{}, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	ent := Entry{PFN: p.pfn(), Size: units.Size4K, Prot: p.prot()}
	e = t.ensureOwned(gi, e)
	t.writePTE(e, pi, 0)
	e.used--
	t.mapped4K.Add(-1)
	if e.used == 0 {
		// Free the empty PTE frame so the slot can take a 2 MB mapping
		// (huge-page promotion collapses the whole directory entry).
		t.setEntry(gi, nil)
	}
	return ent, nil
}

// ensureOwned returns a PGD entry the table may mutate: if e is aliased by a
// forked table (shared), it clones the entry — including its PTE frame — and
// installs the private copy at slot gi, leaving the shared original untouched
// for the other tables. O(1) when the entry is already private, one 4 KB
// frame copy on the first write after a fork. Caller holds t.mu.
//
//simlint:cowbarrier
func (t *Table) ensureOwned(gi uint64, e *pgdEntry) *pgdEntry {
	if !e.shared {
		return e
	}
	ne := &pgdEntry{large: e.large, pfn: e.pfn, prot: e.prot, used: e.used}
	if e.ptes != nil {
		ne.ptes = new([ptesPerFrame]pte)
		*ne.ptes = *e.ptes
	}
	t.setEntry(gi, ne)
	return ne
}

// writePTE stores one PTE into an entry this table owns. It is the single
// write point for the COW-shared ptes frames: callers must route the entry
// through ensureOwned first — checked at run time by the shared panic and
// statically by simlint's cowshared analyzer (writes to a //simlint:cowshared
// field are legal only inside //simlint:cowbarrier functions).
//
//simlint:cowbarrier
func (t *Table) writePTE(e *pgdEntry, pi uint64, p pte) {
	if e.shared {
		panic("pagetable: write to COW-shared PTE frame without ensureOwned")
	}
	e.ptes[pi] = p
}

// Fork returns a copy-on-write duplicate of the table: the fork observes
// exactly the mappings and counters of t at the time of the call,
// but shares every PGD entry (and its 4 KB PTE frame) with t until one side
// writes it, at which point the writer clones just that entry (ensureOwned).
// Forking is O(PGD slots) — it copies pointer slices, never PTE frames — so
// duplicating a fully mapped table costs metadata, not memory.
//
// The fault-injection plan is deliberately not inherited (plans carry
// occurrence counters and must not be shared between runs); arm the fork with
// SetFaultPlan if injection is wanted.
func (t *Table) Fork() *Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := &Table{
		pgdLow:  make([]*pgdEntry, lowPGDs),
		pgdHigh: make(map[uint64]*pgdEntry, len(t.pgdHigh)),
	}
	for gi, e := range t.pgdLow {
		if e != nil {
			e.shared = true
			nt.pgdLow[gi] = e
		}
	}
	for gi, e := range t.pgdHigh {
		e.shared = true
		nt.pgdHigh[gi] = e
	}
	nt.mapped4K.Store(t.mapped4K.Load())
	nt.mapped2M.Store(t.mapped2M.Load())
	nt.mapRetries.Store(t.mapRetries.Load())
	return nt
}

// Translate performs a page walk for va, ignoring protections. The returned
// WalkResult reports the memory references the hardware walker performed:
// 2 for a 4 KB page (PGD entry, then PTE), 1 for a 2 MB page (PGD entry
// only). This asymmetry is one of the two sources of large-page benefit in
// the paper (the other being TLB reach).
func (t *Table) Translate(va units.Addr) (WalkResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e := t.entry(pgdIndex(va))
	if e == nil {
		return WalkResult{MemRefs: 1}, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	if e.large {
		return WalkResult{
			MemRefs: 1,
			Entry:   Entry{PFN: e.pfn, Size: units.Size2M, Prot: e.prot},
		}, nil
	}
	p := e.ptes[pteIndex(va)]
	if !p.present() {
		return WalkResult{MemRefs: 2}, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	return WalkResult{
		MemRefs: 2,
		Entry:   Entry{PFN: p.pfn(), Size: units.Size4K, Prot: p.prot()},
	}, nil
}

// Access resolves va and checks that a write is permitted, returning
// ErrProtViolation for a write to a read-only page.
func (t *Table) Access(va units.Addr, write bool) (WalkResult, error) {
	wr, err := t.Translate(va)
	if err != nil {
		return wr, err
	}
	if write && wr.Entry.Prot&ProtWrite == 0 {
		return wr, fmt.Errorf("%w: %#x (write)", ErrProtViolation, va)
	}
	return wr, nil
}

// PhysAddr computes the physical address for va given its entry.
func PhysAddr(va units.Addr, e Entry) units.Addr {
	return units.Addr(e.PFN)*units.Addr(units.PageSize4K) + (va & e.Size.Mask())
}

// SetFaultPlan arms (or, with nil, disarms) fault injection for this table.
// Call before the run starts; decisions themselves are concurrency-safe.
func (t *Table) SetFaultPlan(p *faultinject.Plan) { t.fault = p }

// maxMapRetries bounds MapRetry. A plan firing at a fixed rate r leaves a
// residual r^(n+1) chance of hard failure; 8 retries make even rate 0.5
// effectively always succeed while still exercising the retry path.
const maxMapRetries = 8

// MapRetry is Map with bounded retry over ErrTransient, the path callers in
// the memory stack use so injected transient faults degrade to extra work
// (counted in MapRetries) instead of failed runs. Non-transient errors
// return immediately.
func (t *Table) MapRetry(va units.Addr, size units.PageSize, pfn uint64, prot Prot) error {
	var err error
	for attempt := uint64(0); attempt <= maxMapRetries; attempt++ {
		err = t.mapAttempt(va, size, pfn, prot, attempt)
		if !errors.Is(err, ErrTransient) {
			return err
		}
		t.mapRetries.Add(1)
	}
	return err
}

// MapRetries returns how many transient Map failures were absorbed by
// MapRetry (lock-free).
func (t *Table) MapRetries() uint64 { return t.mapRetries.Load() }

// Mapped4K returns the number of live 4 KB mappings (lock-free).
func (t *Table) Mapped4K() int { return int(t.mapped4K.Load()) }

// Mapped2M returns the number of live 2 MB mappings (lock-free).
func (t *Table) Mapped2M() int { return int(t.mapped2M.Load()) }

// MappedBytes returns the total bytes mapped (lock-free).
func (t *Table) MappedBytes() int64 {
	return t.mapped4K.Load()*units.PageSize4K + t.mapped2M.Load()*units.PageSize2M
}
