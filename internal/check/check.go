// Package check implements simulator-wide invariant auditing: conservation
// laws over the profile counters and TLB-versus-page-table consistency.
//
// The audits are meant to run on a quiescent system — after a kernel, a
// barrier, or a whole benchmark completes — and they are what turns the fault
// campaigns in cmd/chaos from "it didn't crash" into "every structural
// invariant held under every injected fault". Each audit returns nil when the
// invariant holds and a descriptive error (all violations joined) when it
// does not.
package check

import (
	"errors"
	"fmt"

	"hugeomp/internal/machine"
	"hugeomp/internal/profile"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

// Counters verifies the conservation laws that hold for any counter set
// produced by the machine layer (per-context or any sum of contexts):
//
//   - every data access is exactly one L1 outcome: L1Hits+L1Misses == Loads+Stores
//   - every L1 miss is exactly one L2 outcome: L2Hits+L2Misses == L1Misses
//   - every first-level DTLB miss is resolved once: DTLBL1Misses == DTLBL2Hit+DTLBWalks
//   - the DTLB cannot miss more often than it is probed: DTLBL1Misses <= Loads+Stores
//   - every ITLB miss walks: ITLBL1Miss == ITLBWalks. The ITLB has one
//     level, since machine.Configure refuses a model whose ITLB declares a
//     second (no counter would record that level's hits), so a first-level
//     ITLB miss is a walk.
//   - attributed cycles are a part of, never more than, the busy clock:
//     WalkCyc+MemCyc+BarrierCyc+FlushCycles <= Busy
func Counters(c profile.Counters) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("check: counters: "+format, args...))
	}
	if c.L1Hits+c.L1Misses != c.Accesses() {
		fail("L1 outcomes %d+%d != %d data accesses", c.L1Hits, c.L1Misses, c.Accesses())
	}
	if c.L2Hits+c.L2Misses != c.L1Misses {
		fail("L2 outcomes %d+%d != %d L1 misses", c.L2Hits, c.L2Misses, c.L1Misses)
	}
	if c.DTLBL1Misses() != c.DTLBL2Hit+c.DTLBWalks() {
		fail("DTLB L1 misses %d != L2 hits %d + walks %d",
			c.DTLBL1Misses(), c.DTLBL2Hit, c.DTLBWalks())
	}
	if c.DTLBL1Misses() > c.Accesses() {
		fail("DTLB L1 misses %d > %d data accesses", c.DTLBL1Misses(), c.Accesses())
	}
	if c.ITLBL1Miss != c.ITLBWalks {
		fail("ITLB misses %d != %d instruction walks", c.ITLBL1Miss, c.ITLBWalks)
	}
	if attributed := c.WalkCyc + c.MemCyc + c.BarrierCyc + c.FlushCycles; attributed > c.Busy {
		fail("attributed cycles %d (walk %d + mem %d + barrier %d + flush %d) > busy %d",
			attributed, c.WalkCyc, c.MemCyc, c.BarrierCyc, c.FlushCycles, c.Busy)
	}
	return errors.Join(errs...)
}

// TLBs audits one context's resident TLB entries against the live page table:
// every valid entry must correspond to a current mapping of the same page-size
// class, and no page may be resident in both levels of one size class (the
// levels are exclusive; see tlb.Hierarchy). Queued shootdowns are delivered
// first (the
// mailbox contract makes undelivered invalidations legal until the next
// access, so the audit observes the post-delivery state). Call only while the
// context is quiescent.
func TLBs(ctx *machine.Context) error {
	ctx.SettleForAudit()
	pt := ctx.PageTable()
	var errs []error
	audit := func(name string, h *tlb.Hierarchy) {
		var inL1 [units.NumPageSizes]map[uint64]bool
		h.VisitEntries(func(level int, size units.PageSize, e tlb.Entry) {
			// VisitEntries lists a size class's L1 entries before its L2.
			if level == 1 {
				if inL1[size] == nil {
					inL1[size] = make(map[uint64]bool)
				}
				inL1[size][e.VPN] = true
			} else if inL1[size][e.VPN] {
				errs = append(errs, fmt.Errorf(
					"check: ctx %d %s: %s vpn %#x resident in both L1 and L2 (the levels are exclusive)",
					ctx.ID, name, size, e.VPN))
			}
			va := units.Addr(e.VPN) << size.Shift()
			wr, err := pt.Translate(va)
			if err != nil {
				errs = append(errs, fmt.Errorf(
					"check: ctx %d %s L%d: resident %s entry for va %#x has no live mapping: %w",
					ctx.ID, name, level, size, va, err))
				return
			}
			if wr.Entry.Size != size {
				errs = append(errs, fmt.Errorf(
					"check: ctx %d %s L%d: entry for va %#x cached as %s but the table maps it %s (missed shootdown on a size change)",
					ctx.ID, name, level, va, size, wr.Entry.Size))
			}
		})
	}
	audit("dtlb", ctx.DTLB())
	audit("itlb", ctx.ITLB())
	return errors.Join(errs...)
}

// All runs every audit over a quiescent machine: the counter conservation
// laws over the sum of all contexts (and over each context individually,
// since the laws hold per context too) and the TLB consistency of every
// context.
func All(m *machine.Machine) error {
	var errs []error
	var agg profile.Counters
	for _, ctx := range m.Contexts() {
		agg.Add(&ctx.Ctr)
		if err := Counters(ctx.Ctr); err != nil {
			errs = append(errs, fmt.Errorf("ctx %d: %w", ctx.ID, err))
		}
		if err := TLBs(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if err := Counters(agg); err != nil {
		errs = append(errs, fmt.Errorf("aggregate: %w", err))
	}
	return errors.Join(errs...)
}
