// Package tlb implements the translation lookaside buffers of the simulated
// processors: set-associative (or fully associative) LRU-replacement caches
// of virtual-page-number → translation mappings, with separate entry classes
// for 4 KB and 2 MB pages and up to two levels, exactly the structure the
// paper reports for the Opteron and Xeon (its Table 1).
//
// A TLB is owned by a single simulated hardware context and is not
// goroutine-safe; SMT siblings each get their own partitioned structures
// (Spec.Partition), never a shared one. An entry records only that its page
// is resident: a page's permission is fixed when it is mapped, so a
// permission check belongs to the page walk, not to the TLB.
//
// The implementation simulates an associative structure without paying
// associative host cost on the common paths:
//
//   - Replacement recency is a per-set permutation vector — one byte per
//     way, most-recently-used first — packed into a handful of uint64
//     words, rather than LRU timestamps. Every stamp refresh of the old
//     scheme is a byte rotation here, so "evict the minimum stamp" and
//     "evict the last byte" select the same way, but victim selection is a
//     single shift instead of an associativity-wide scan, and a recency
//     refresh is a short SWAR byte search plus one masked shift per word —
//     no pointer chasing — which matters because the fully associative
//     32-way L1 DTLBs of the paper's processors sit on the scalar access
//     hot path.
//
//   - A counting presence filter (a small power-of-two array of per-hash
//     resident counts) answers "definitely not resident" with one load. It
//     is exact — no false negatives — so a filtered miss is byte-identical
//     to a scanned miss, and a miss never perturbs recency state, so
//     skipping the scan is invisible. Each filter slot also records the way
//     its hash last filled, so a hit is one VPN compare; the scan runs only
//     when that way has since been refilled with another VPN. (The
//     hierarchy layer keeps a second, union filter across both levels that
//     answers full-stack misses before any structure is probed; the
//     per-structure filter here is what spares the fully associative scans
//     when the probe cascade does run.)
//
//   - The two levels of one size class are exclusive: a VPN is resident in
//     at most one of them (see Hierarchy). So a hierarchy fill never asks
//     whether the VPN it installs is already resident, a second-level hit
//     removes its entry in the probe that found it, and a shootdown stops
//     at the first level that held the page.
package tlb

import (
	"fmt"
	"math/bits"
)

// Config sizes one TLB structure. Ways == 0 or Ways >= Entries means fully
// associative. Entries == 0 means the structure is absent (for example the
// Opteron's L2 DTLB holds no 2 MB entries).
type Config struct {
	Entries int
	Ways    int
}

// geometry validates a present structure's cfg and returns its
// associativity and set count, applying New's defaults.
func (cfg Config) geometry() (assoc, sets int, err error) {
	if cfg.Entries <= 0 {
		return 0, 0, fmt.Errorf("tlb: %d entries", cfg.Entries)
	}
	assoc = cfg.Ways
	if assoc <= 0 || assoc > cfg.Entries {
		assoc = cfg.Entries
	}
	sets = cfg.Entries / assoc
	if sets*assoc != cfg.Entries {
		return 0, 0, fmt.Errorf("tlb: entries %d not divisible by ways %d", cfg.Entries, assoc)
	}
	if sets&(sets-1) != 0 {
		return 0, 0, fmt.Errorf("tlb: set count %d not a power of two", sets)
	}
	if cfg.Entries > 1<<16 {
		return 0, 0, fmt.Errorf("tlb: %d entries exceed recency-link width", cfg.Entries)
	}
	if assoc > 256 {
		return 0, 0, fmt.Errorf("tlb: associativity %d exceeds recency-byte width", assoc)
	}
	return assoc, sets, nil
}

// TLB is a single LRU translation cache for one page-size class. Ways are
// stored structure-of-arrays (set-major) so the hit scan walks a dense
// []uint64 of VPNs.
type TLB struct {
	vpns  []uint64
	valid []bool

	// Per-set recency permutation: ow words of order per set, one byte per
	// way. Byte position 0 of the set's first word is the MRU way's
	// set-local index; the last in-range byte is the LRU victim. Every way,
	// valid or not, always appears exactly once in its set's vector.
	//
	// Unused high bytes of a set's last word (when assoc is not a multiple
	// of 8) stay zero. The SWAR byte search below may therefore flag such a
	// byte when looking for way 0 — but way 0's true byte always sits at a
	// position below assoc, hence at the same or an earlier word and a
	// lower bit offset, and the search takes the lowest flagged byte, so
	// the phantom match is never selected.
	order []uint64
	ow    int      // order words per set: (assoc+7)/8
	live  []uint16 // valid ways per set

	// Counting presence filter: the low 16 bits of filt[vpn&filtMask] count
	// resident VPNs hashing to the slot, and the high 16 bits hold the way
	// (an index into vpns) that a VPN hashing to the slot last filled. A
	// zero count means vpn is definitely absent; otherwise vpn is most
	// likely in the recorded way, which one compare confirms. Nil for
	// narrow structures (assoc <= 8), whose set scan is already one load
	// wide — see New. A slot's count never exceeds assoc (its VPNs share a
	// set) and a way index is below 1<<16 (see geometry).
	filt     []uint32
	filtMask uint64

	assoc   int
	setMask uint64
}

// New builds a TLB from cfg, or reports why its geometry is invalid. It
// returns nil for an absent structure (cfg.Entries == 0); all methods on a
// nil *TLB behave as a structure that never hits.
func New(cfg Config) (*TLB, error) {
	if cfg.Entries == 0 {
		return nil, nil
	}
	assoc, sets, err := cfg.geometry()
	if err != nil {
		return nil, err
	}
	// The counting filter earns its keep only when it spares a wide scan:
	// for associativities of eight or fewer ways the whole set's VPNs fit
	// in one host cache line, so a probe costs the same load the filter
	// would, while maintaining the counts charges extra stores on every
	// fill and eviction. Narrow structures therefore run unfiltered; the
	// hierarchy's union filter still short-circuits full-stack misses.
	filtSlots := 0
	if assoc > 8 {
		filtSlots = 16
		for filtSlots < 8*cfg.Entries {
			filtSlots <<= 1
		}
	}
	ow := (assoc + 7) / 8
	t := &TLB{
		vpns:    make([]uint64, cfg.Entries),
		valid:   make([]bool, cfg.Entries),
		order:   make([]uint64, sets*ow),
		ow:      ow,
		live:    make([]uint16, sets),
		assoc:   assoc,
		setMask: uint64(sets - 1),
	}
	if filtSlots > 0 {
		t.filt = make([]uint32, filtSlots)
		t.filtMask = uint64(filtSlots - 1)
	}
	t.resetOrder()
	return t, nil
}

// resetOrder writes the identity permutation into every set's zeroed
// recency vector (all ways invalid, so the order is arbitrary but
// deterministic).
func (t *TLB) resetOrder() {
	sets := int(t.setMask) + 1
	for s := 0; s < sets; s++ {
		ob := s * t.ow
		for p := 0; p < t.assoc; p++ {
			t.order[ob+p>>3] |= uint64(p&0xff) << (8 * (p & 7))
		}
	}
}

// headWay returns the MRU way of the set whose order vector starts at ob.
func (t *TLB) headWay(ob int) int { return int(t.order[ob] & 0xff) }

// tailWay returns the LRU way — byte position assoc-1 of the vector.
func (t *TLB) tailWay(ob int) int {
	p := t.assoc - 1
	return int(t.order[ob+p>>3] >> (8 * (p & 7)) & 0xff)
}

// touchPos moves the way at known recency position p to the front: bytes
// [0,p) shift up one position and the way's byte is reinserted at position
// 0. Positions above p (including the zero padding bytes past assoc) are
// untouched.
func (t *TLB) touchPos(ob, p, w int) {
	wi, bi := p>>3, p&7
	carry := uint64(w & 0xff)
	for j := 0; j < wi; j++ {
		word := t.order[ob+j]
		t.order[ob+j] = word<<8 | carry
		carry = word >> 56
	}
	word := t.order[ob+wi]
	low := word & (uint64(1)<<(8*bi) - 1)
	var high uint64
	if bi < 7 {
		high = word &^ (uint64(1)<<(8*(bi+1)) - 1)
	}
	t.order[ob+wi] = high | low<<8 | carry
}

// touchWay moves set-local way li to the front (MRU position) of its set's
// recency vector — the permutation equivalent of refreshing an LRU stamp.
// The SWAR probe flags the lowest byte equal to li in each word; see the
// order field's comment for why zero padding bytes can never win.
func (t *TLB) touchWay(set uint64, li int) {
	ob := int(set) * t.ow
	if t.headWay(ob) == li {
		return
	}
	pat := uint64(li&0xff) * 0x0101010101010101
	for j := 0; j < t.ow; j++ {
		x := t.order[ob+j] ^ pat
		if m := (x - 0x0101010101010101) &^ x & 0x8080808080808080; m != 0 {
			t.touchPos(ob, j*8+bits.TrailingZeros64(m)/8, li)
			return
		}
	}
}

// Entries returns the capacity of the TLB (0 for an absent structure).
func (t *TLB) Entries() int {
	if t == nil {
		return 0
	}
	return len(t.vpns)
}

// filtCount masks a filter slot's resident count; the bits above it hold
// the way the slot last filled.
const filtCount = 1<<16 - 1

// find returns the index in vpns of the way holding vpn, or -1. It touches
// no recency state.
func (t *TLB) find(vpn uint64) int {
	set := vpn & t.setMask
	base := int(set) * t.assoc
	if t.filt != nil {
		f := t.filt[vpn&t.filtMask]
		if f&filtCount == 0 {
			return -1
		}
		if w := int(f >> 16); t.vpns[w] == vpn && t.valid[w] {
			return w
		}
	} else if h := base + t.headWay(int(set)*t.ow); t.vpns[h] == vpn && t.valid[h] {
		// MRU fast path: spatial locality makes consecutive accesses to
		// the same page the common case.
		return h
	}
	for i := base; i < base+t.assoc; i++ {
		if t.vpns[i] == vpn && t.valid[i] {
			return i
		}
	}
	return -1
}

// Lookup probes for vpn and refreshes its LRU recency on a hit.
func (t *TLB) Lookup(vpn uint64) bool {
	if t == nil {
		return false
	}
	w := t.find(vpn)
	if w < 0 {
		return false
	}
	// An MRU hit, the common case under spatial locality, is already at
	// the front of the recency vector.
	set := vpn & t.setMask
	if li := w - int(set)*t.assoc; t.headWay(int(set)*t.ow) != li {
		t.touchWay(set, li)
	}
	return true
}

// Entry is a TLB entry as seen by VisitEntries.
type Entry struct {
	VPN uint64
}

// insert fills vpn, which must not be resident, into the lowest-indexed
// invalid way of its set, or over the set's LRU way when the set is full,
// and returns the VPN that fill evicted, if any.
func (t *TLB) insert(vpn uint64) (evicted uint64, wasEvicted bool) {
	if t == nil {
		return 0, false
	}
	set := vpn & t.setMask
	base := int(set) * t.assoc
	ob := int(set) * t.ow
	victim := base
	if int(t.live[set]) < t.assoc {
		// The set has room: fill the lowest-indexed invalid way, the same
		// way the stamp-scan victim search picked it.
		for t.valid[victim] {
			victim++
		}
		t.live[set]++
		t.valid[victim] = true
		t.touchWay(set, victim-base)
	} else {
		// A full set always evicts the LRU tail, whose recency position is
		// known — the move-to-front needs no search.
		victim += t.tailWay(ob)
		evicted, wasEvicted = t.vpns[victim], true
		if t.filt != nil {
			t.filt[evicted&t.filtMask]--
		}
		t.touchPos(ob, t.assoc-1, victim-base)
	}
	t.vpns[victim] = vpn
	if t.filt != nil {
		f := &t.filt[vpn&t.filtMask]
		*f = (*f&filtCount + 1) | uint32(victim)<<16
	}
	return evicted, wasEvicted
}

// Invalidate removes vpn if present (a TLB shootdown, or a second-level
// hit leaving for the first level), reporting whether an entry was
// dropped. It touches no recency state: the way keeps its place in its
// set's recency vector, and since a fill prefers invalid ways by index and
// moves the way it fills to the front, an invalid way's place is never
// observed.
func (t *TLB) Invalidate(vpn uint64) bool {
	if t == nil {
		return false
	}
	w := t.find(vpn)
	if w < 0 {
		return false
	}
	t.valid[w] = false
	t.live[vpn&t.setMask]--
	if t.filt != nil {
		t.filt[vpn&t.filtMask]--
	}
	return true
}

// Visit calls f for every valid entry (nil-safe). The post-run consistency
// audit in internal/check uses it to compare resident translations against
// the page table.
func (t *TLB) Visit(f func(Entry)) {
	if t == nil {
		return
	}
	for i := range t.vpns {
		if t.valid[i] {
			f(Entry{VPN: t.vpns[i]})
		}
	}
}
