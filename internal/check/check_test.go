package check

import (
	"testing"

	"hugeomp/internal/machine"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/profile"
	"hugeomp/internal/units"
)

// newMachine builds a one-socket machine with pages pages of the given class
// mapped read-write from VA 0, returning the machine and its contexts.
func newMachine(t testing.TB, model machine.Model, threads, pages int, ps units.PageSize) (*machine.Machine, []*machine.Context) {
	t.Helper()
	pt := pagetable.New()
	for i := 0; i < pages; i++ {
		va := units.Addr(int64(i) * ps.Bytes())
		pfn := uint64(int64(i) * ps.Bytes() / units.PageSize4K)
		if err := pt.Map(va, ps, pfn, pagetable.ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	m := machine.New(model)
	m.AttachProcess(pt)
	ctxs, err := m.Configure(threads)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ctxs {
		c.SetPageHint(ps)
	}
	return m, ctxs
}

func TestAllHoldsOnRealRun(t *testing.T) {
	m, ctxs := newMachine(t, machine.Opteron270(), 2, 64, units.Size4K)
	for i, c := range ctxs {
		c.AccessRange(units.Addr(int64(i)*128*units.KB), 8192, 8, i%2 == 1)
		c.FetchRange(0, 256, 64)
		c.Load(units.Addr(i * 4096))
		c.Store(units.Addr(i*4096 + 64))
	}
	if err := All(m); err != nil {
		t.Fatalf("invariants violated on a clean run: %v", err)
	}
}

// TestCountersFlagsMutations perturbs each field that participates in a
// conservation law and verifies the audit is not vacuously green.
func TestCountersFlagsMutations(t *testing.T) {
	_, ctxs := newMachine(t, machine.Opteron270(), 1, 64, units.Size4K)
	ctxs[0].AccessRange(0, 8192, 8, false)
	ctxs[0].FetchRange(0, 256, 64)
	base := ctxs[0].Ctr
	if err := Counters(base); err != nil {
		t.Fatalf("baseline counters invalid: %v", err)
	}
	mutations := map[string]func(*profile.Counters){
		"L1Hits":     func(c *profile.Counters) { c.L1Hits++ },
		"L1Misses":   func(c *profile.Counters) { c.L1Misses++ },
		"L2Hits":     func(c *profile.Counters) { c.L2Hits++ },
		"L2Misses":   func(c *profile.Counters) { c.L2Misses++ },
		"Loads":      func(c *profile.Counters) { c.Loads++ },
		"DTLBL2Hit":  func(c *profile.Counters) { c.DTLBL2Hit++ },
		"DTLBWalks":  func(c *profile.Counters) { c.DTLBWalks4K++ },
		"ITLBWalks":  func(c *profile.Counters) { c.ITLBWalks++ },
		"ITLBL1Miss": func(c *profile.Counters) { c.ITLBL1Miss++ },
		"BusyUnder":  func(c *profile.Counters) { c.Busy = c.WalkCyc + c.MemCyc - 1 },
	}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		if err := Counters(c); err == nil {
			t.Errorf("mutation %s not flagged", name)
		}
	}
}

func TestTLBAuditCatchesMissedUnmapShootdown(t *testing.T) {
	m, ctxs := newMachine(t, machine.Opteron270(), 1, 16, units.Size4K)
	c := ctxs[0]
	c.AccessRange(0, 16*512, 8, false) // fill the DTLB with all 16 pages
	if err := TLBs(c); err != nil {
		t.Fatalf("clean TLB state flagged: %v", err)
	}
	// Unmap page 3 without a shootdown: the resident entry is now stale.
	if _, err := m.PageTable().Unmap(3*4096, units.Size4K); err != nil {
		t.Fatal(err)
	}
	if err := TLBs(c); err == nil {
		t.Fatal("stale TLB entry for an unmapped page not flagged")
	}
	// Deliver the shootdown; the audit settles the mailbox and passes again.
	c.InvalidatePage(3*4096, units.Size4K)
	if err := TLBs(c); err != nil {
		t.Fatalf("TLB state after shootdown delivery flagged: %v", err)
	}
}

func TestTranslationCacheAuditCatchesCorruption(t *testing.T) {
	_, ctxs := newMachine(t, machine.Opteron270(), 1, 16, units.Size4K)
	c := ctxs[0]
	c.AccessRange(0, 16*512, 8, false)
	if err := TranslationCache(c); err != nil {
		t.Fatalf("clean translation cache flagged: %v", err)
	}
	// Plant a current-generation entry whose PFN disagrees with the table.
	c.ForceTranslationCacheEntry(9, pagetable.WalkResult{
		MemRefs: 4,
		Entry:   pagetable.Entry{PFN: 0xdead, Size: units.Size4K, Prot: pagetable.ProtRW},
	})
	if err := TranslationCache(c); err == nil {
		t.Fatal("corrupted translation-cache entry not flagged")
	}
}

// FuzzCounters drives the counter audit with arbitrary conserved sets: a
// consistent set (constructed so every law holds) must pass, and a +delta
// perturbation of any single equality-law field must fail.
func FuzzCounters(f *testing.F) {
	f.Add(uint64(1000), uint64(200), uint64(50), uint64(30), uint64(10), uint64(5), uint64(9999), uint8(0), uint8(1))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint8(3), uint8(7))
	f.Add(uint64(1<<40), uint64(1<<39), uint64(1<<20), uint64(1<<19), uint64(1<<10), uint64(1<<9), uint64(1<<50), uint8(5), uint8(255))
	f.Fuzz(func(t *testing.T, loads, stores, l1miss, l2hits, dtlbL2, walks4k, itlb uint64, field, deltaRaw uint8) {
		// Cap magnitudes so the derived cycle fields cannot overflow (the
		// audit's inequality assumes non-wrapping sums, which real counters
		// satisfy by construction).
		loads &= 0xffffffff
		stores &= 0xffffffff
		l1miss &= 0xffffffff
		l2hits &= 0xffffffff
		dtlbL2 &= 0xffffffff
		walks4k &= 0xffffffff
		itlb &= 0xffffffff
		// Build a set that satisfies every law by construction.
		acc := loads + stores
		l1miss %= acc + 1
		l2hits %= l1miss + 1
		dtlbMiss := (dtlbL2 + walks4k) % (acc + 1)
		dtlbL2 %= dtlbMiss + 1
		walks4k = dtlbMiss - dtlbL2
		c := profile.Counters{
			Loads:        loads,
			Stores:       stores,
			L1Hits:       acc - l1miss,
			L1Misses:     l1miss,
			L2Hits:       l2hits,
			L2Misses:     l1miss - l2hits,
			DTLBL1Miss4K: dtlbMiss,
			DTLBL2Hit:    dtlbL2,
			DTLBWalks4K:  walks4k,
			ITLBL1Miss:   itlb,
			ITLBWalks:    itlb,
			WalkCyc:      walks4k * 4,
			MemCyc:       (l1miss - l2hits) * 100,
			BarrierCyc:   dtlbL2,
			Busy:         walks4k*4 + (l1miss-l2hits)*100 + dtlbL2 + acc,
		}
		if err := Counters(c); err != nil {
			t.Fatalf("constructed-consistent set flagged: %v\n%+v", err, c)
		}
		delta := uint64(deltaRaw)%1000 + 1
		mutants := []func(*profile.Counters){
			func(c *profile.Counters) { c.L1Hits += delta },
			func(c *profile.Counters) { c.L2Hits += delta },
			func(c *profile.Counters) { c.DTLBL2Hit += delta },
			func(c *profile.Counters) { c.ITLBWalks += delta },
			func(c *profile.Counters) { c.DTLBWalks2M += delta },
		}
		mut := c
		mutants[int(field)%len(mutants)](&mut)
		if err := Counters(mut); err == nil {
			t.Fatalf("mutation %d (+%d) not flagged on %+v", int(field)%len(mutants), delta, c)
		}
	})
}
