package tlb

import (
	"fmt"
	"math/bits"

	"hugeomp/internal/units"
)

// LevelSpec sizes one TLB level, with separate entry classes per page size
// (processors of the paper's era kept distinct, smaller arrays for large
// pages).
type LevelSpec struct {
	E4K Config // 4 KB-entry class
	E2M Config // 2 MB-entry class
}

// Spec sizes a full two-level TLB stack (L1 + optional L2).
type Spec struct {
	Name string
	L1   LevelSpec
	L2   LevelSpec // zero Entries = no second level
}

// Partition returns the geometry of one of share equal static slices of
// the stack, by the rule cache.Config.Partition applies to a shared cache:
// the paper's SMT model, where with two threads per core "the effective
// number of TLB entries could potentially be halved". A fully associative
// structure keeps entries/share entries, at least one. A set-associative
// one keeps its ways over sets/share sets, rounded down to a power of two
// because the set index is a mask; with fewer sets than sharers it is
// sliced like a fully associative one. Absent structures stay absent, and
// an invalid geometry is returned unchanged for NewHierarchy to report.
func (s Spec) Partition(share int) Spec {
	if share <= 1 {
		return s
	}
	p := func(c Config) Config {
		assoc, sets, err := c.geometry()
		if err != nil {
			return c
		}
		if sets /= share; sets > 0 && assoc < c.Entries {
			return Config{Entries: assoc << (bits.Len(uint(sets)) - 1), Ways: c.Ways}
		}
		e := max(c.Entries/share, 1)
		return Config{Entries: e, Ways: min(c.Ways, e)}
	}
	return Spec{
		Name: fmt.Sprintf("%s/1of%d", s.Name, share),
		L1:   LevelSpec{E4K: p(s.L1.E4K), E2M: p(s.L1.E2M)},
		L2:   LevelSpec{E4K: p(s.L2.E4K), E2M: p(s.L2.E2M)},
	}
}

// Coverage returns the bytes of address space the whole stack can map for
// the given page size (the paper's Table 1 "Coverage" rows).
func (s Spec) Coverage(size units.PageSize) int64 {
	var entries int
	if size == units.Size2M {
		entries = s.L1.E2M.Entries + s.L2.E2M.Entries
	} else {
		entries = s.L1.E4K.Entries + s.L2.E4K.Entries
	}
	return int64(entries) * size.Bytes()
}

// Outcome classifies a TLB access.
type Outcome uint8

const (
	HitL1 Outcome = iota
	HitL2
	Miss
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	default:
		return "miss"
	}
}

// Hierarchy is an instantiated two-level split-size TLB stack for one
// context (one ITLB or one DTLB).
//
// The two levels of a size class are exclusive: a VPN is resident in at
// most one of them. A second-level hit moves the entry up (removing it from
// L2 in the probe that found it) and the first-level victim moves down; a
// fill installs a VPN that has just missed in both levels, and its
// first-level victim moves down. Each move therefore installs a VPN that
// its destination cannot hold, so no fill searches for a resident copy,
// and a shootdown stops at the first level that held the page.
// check.TLBs audits the invariant. Callers must Fill only a VPN whose
// Access returned Miss, with no Fill of it since.
//
// A per-size-class union presence filter counts the valid entries of both
// levels per hash slot, so a full-stack miss — the expensive outcome that
// otherwise probes up to two structures before walking — is answered with a
// single load. The count is exact (every fill, eviction, promotion and
// shootdown adjusts it), so a filtered miss is byte-identical to the probed
// cascade it skips.
type Hierarchy struct {
	l1 [units.NumPageSizes]*TLB
	l2 [units.NumPageSizes]*TLB

	filt     [units.NumPageSizes][]uint16
	filtMask [units.NumPageSizes]uint64
}

// NewHierarchy instantiates spec, or reports the first structure whose
// geometry is invalid.
func NewHierarchy(spec Spec) (*Hierarchy, error) {
	h := &Hierarchy{}
	for _, s := range []struct {
		at  **TLB
		cfg Config
	}{
		{at: &h.l1[units.Size4K], cfg: spec.L1.E4K},
		{at: &h.l1[units.Size2M], cfg: spec.L1.E2M},
		{at: &h.l2[units.Size4K], cfg: spec.L2.E4K},
		{at: &h.l2[units.Size2M], cfg: spec.L2.E2M},
	} {
		var err error
		if *s.at, err = New(s.cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	for _, size := range [...]units.PageSize{units.Size4K, units.Size2M} {
		total := h.l1[size].Entries() + h.l2[size].Entries()
		if total == 0 {
			continue
		}
		slots := 16
		for slots < 8*total {
			slots <<= 1
		}
		h.filt[size] = make([]uint16, slots)
		h.filtMask[size] = uint64(slots - 1)
	}
	return h, nil
}

func (h *Hierarchy) unionAdd(size units.PageSize, vpn uint64) {
	if f := h.filt[size]; f != nil {
		f[vpn&h.filtMask[size]]++
	}
}

func (h *Hierarchy) unionDel(size units.PageSize, vpn uint64) {
	if f := h.filt[size]; f != nil {
		f[vpn&h.filtMask[size]]--
	}
}

// Access probes the stack for vpn of the given page-size class. A
// second-level hit promotes the entry into L1. On a full miss the caller
// must perform a page walk and then call Fill.
func (h *Hierarchy) Access(vpn uint64, size units.PageSize) Outcome {
	if f := h.filt[size]; f != nil && f[vpn&h.filtMask[size]] == 0 {
		// Resident in neither level: one load replaces the full cascade,
		// and since a miss never touches recency state, skipping it is
		// invisible.
		return Miss
	}
	if h.l1[size].Lookup(vpn) {
		return HitL1
	}
	if h.l2[size].Invalidate(vpn) {
		// Promote to L1 exclusively: the entry moves up and the L1 victim
		// falls back to L2, so the stack's effective capacity is L1+L2 —
		// how the Opteron's two-level DTLB behaves in aggregate. The vpn
		// itself stays in the stack; only collateral evictions leave it.
		h.install(vpn, size)
		return HitL2
	}
	return Miss
}

// install puts vpn, resident in neither level, into L1 and pushes the L1
// evictee down into L2, keeping the union filter exact: the evictee's move
// is count-neutral, and whatever its insertion evicts from L2 leaves the
// stack.
func (h *Hierarchy) install(vpn uint64, size units.PageSize) {
	ev, ok := h.l1[size].insert(vpn)
	if !ok {
		return
	}
	if h.l2[size] == nil {
		// No second level (e.g. the Opteron's 2 MB class): the evictee
		// leaves the stack entirely.
		h.unionDel(size, ev)
		return
	}
	if ev2, ok := h.l2[size].insert(ev); ok {
		h.unionDel(size, ev2)
	}
}

// Fill installs a translation after a page walk. vpn must have missed in
// Access (see Hierarchy).
func (h *Hierarchy) Fill(vpn uint64, size units.PageSize) {
	h.unionAdd(size, vpn)
	h.install(vpn, size)
}

// Invalidate performs a shootdown of vpn in its size class. The levels are
// exclusive, so an L1 hit leaves L2 unprobed.
func (h *Hierarchy) Invalidate(vpn uint64, size units.PageSize) {
	if h.l1[size].Invalidate(vpn) || h.l2[size].Invalidate(vpn) {
		h.unionDel(size, vpn)
	}
}

// VisitEntries calls f for every valid entry across both levels and both
// size classes, reporting the level (1 or 2) and page size alongside the
// entry. Used by the post-run TLB-vs-pagetable consistency audit.
func (h *Hierarchy) VisitEntries(f func(level int, size units.PageSize, e Entry)) {
	for _, size := range [...]units.PageSize{units.Size4K, units.Size2M} {
		sz := size
		h.l1[sz].Visit(func(e Entry) { f(1, sz, e) })
		h.l2[sz].Visit(func(e Entry) { f(2, sz, e) })
	}
}
