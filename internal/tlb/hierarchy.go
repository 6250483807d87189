package tlb

import (
	"fmt"
	"math/bits"
	"strings"

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
// A per-size-class union presence filter counts the valid entries of both
// levels per hash slot, so a full-stack miss — the expensive outcome that
// otherwise probes up to two structures before walking — is answered with a
// single load. The count is exact (every fill, eviction, promotion and
// shootdown adjusts it), so a filtered miss is byte-identical to the probed
// cascade it skips.
type Hierarchy struct {
	spec Spec
	l1   [units.NumPageSizes]*TLB
	l2   [units.NumPageSizes]*TLB

	filt     [units.NumPageSizes][]uint16
	filtMask [units.NumPageSizes]uint64
}

// NewHierarchy instantiates spec, or reports the first structure whose
// geometry is invalid.
func NewHierarchy(spec Spec) (*Hierarchy, error) {
	h := &Hierarchy{spec: spec}
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

// Spec returns the hierarchy's configuration.
func (h *Hierarchy) Spec() Spec { return h.spec }

// Access probes the stack for vpn of the given page-size class. A
// second-level hit promotes the entry into L1. On a full miss the caller
// must perform a page walk and then call Fill.
//
//simlint:hotpath
func (h *Hierarchy) Access(vpn uint64, size units.PageSize) Outcome {
	if f := h.filt[size]; f != nil && f[vpn&h.filtMask[size]] == 0 {
		// Resident in neither level: one load replaces the full cascade.
		// Misses never touch recency state, so only the per-structure miss
		// counters need recording.
		h.l1[size].countMiss()
		h.l2[size].countMiss()
		return Miss
	}
	if h.l1[size].Lookup(vpn) {
		return HitL1
	}
	if h.l2[size].Lookup(vpn) {
		// Promote to L1 exclusively: the entry moves up and the L1 victim
		// falls back to L2, so the stack's effective capacity is L1+L2 —
		// how the Opteron's two-level DTLB behaves in aggregate. The vpn
		// itself moves between levels (count-neutral net of the two
		// adjustments); only collateral evictions leave the stack.
		h.l2[size].Invalidate(vpn)
		h.unionDel(size, vpn)
		ev, evOK, ip := h.l1[size].InsertEx(vpn)
		if !ip {
			h.unionAdd(size, vpn)
		}
		if evOK {
			h.demote(size, ev)
		}
		return HitL2
	}
	return Miss
}

// demote pushes an L1 evictee down into L2, keeping the union filter exact:
// the entry's own move is count-neutral unless L2 already held a copy, and
// whatever its insertion evicts from L2 leaves the stack.
func (h *Hierarchy) demote(size units.PageSize, ev Entry) {
	if h.l2[size] == nil {
		// No second level (e.g. the Opteron's 2 MB class): the evictee
		// leaves the stack entirely.
		h.unionDel(size, ev.VPN)
		return
	}
	ev2, ev2OK, ip2 := h.l2[size].InsertEx(ev.VPN)
	if ip2 {
		h.unionDel(size, ev.VPN)
	}
	if ev2OK {
		h.unionDel(size, ev2.VPN)
	}
}

// Fill installs a translation after a page walk.
//
//simlint:hotpath
func (h *Hierarchy) Fill(vpn uint64, size units.PageSize) {
	ev, evOK, ip := h.l1[size].InsertEx(vpn)
	if !ip {
		h.unionAdd(size, vpn)
	}
	if evOK {
		h.demote(size, ev)
	}
}

// Invalidate performs a shootdown of vpn in every level of its size class.
func (h *Hierarchy) Invalidate(vpn uint64, size units.PageSize) {
	if h.l1[size].Invalidate(vpn) {
		h.unionDel(size, vpn)
	}
	if h.l2[size].Invalidate(vpn) {
		h.unionDel(size, vpn)
	}
}

// Flush empties every structure (a full TLB flush, e.g. on context switch in
// the paper-era processors without ASIDs; our SMT model keeps per-context
// stacks instead, so this is used mainly by tests and by region resets).
func (h *Hierarchy) Flush() {
	for i := range h.l1 {
		h.l1[i].Flush()
		h.l2[i].Flush()
	}
	for _, f := range h.filt {
		for i := range f {
			f[i] = 0
		}
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

// String summarises the stack.
func (h *Hierarchy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: L1[4K %d/%dw, 2M %d/%dw]",
		h.spec.Name, h.spec.L1.E4K.Entries, h.spec.L1.E4K.Ways,
		h.spec.L1.E2M.Entries, h.spec.L1.E2M.Ways)
	if h.spec.L2.E4K.Entries > 0 || h.spec.L2.E2M.Entries > 0 {
		fmt.Fprintf(&b, " L2[4K %d/%dw, 2M %d/%dw]",
			h.spec.L2.E4K.Entries, h.spec.L2.E4K.Ways,
			h.spec.L2.E2M.Entries, h.spec.L2.E2M.Ways)
	}
	return b.String()
}
