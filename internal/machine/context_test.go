package machine

import (
	"runtime"
	"testing"
	"testing/quick"

	"hugeomp/internal/pagetable"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

// equivCfg is one machine configuration of the equivalence property: the
// bulk AccessRange path must match the scalar paths on every page-size
// policy and on partitioned SMT contexts, not just the default Opteron.
type equivCfg struct {
	name    string
	model   Model
	threads int
	ps      units.PageSize
	// demand maps nothing up front: an OnFault handler maps each 4 KB page
	// on its first touch, so translations fault mid-engine the way they do
	// under the transparent policy.
	demand bool
}

func equivConfigs() []equivCfg {
	return []equivCfg{
		{"opteron/1thr/partition/4K", Opteron270(), 1, units.Size4K, false},
		{"opteron/1thr/partition/2M", Opteron270(), 1, units.Size2M, false},
		{"xeon/8thr/partition/4K", XeonHT(), 8, units.Size4K, false},
		{"xeon/8thr/partition/2M", XeonHT(), 8, units.Size2M, false},
		{"opteron/4thr/partition/4K", Opteron270(), 4, units.Size4K, false},
		{"opteron/4thr/partition/2M", Opteron270(), 4, units.Size2M, false},
		{"opteron/1thr/demand/4K", Opteron270(), 1, units.Size4K, true},
		{"opteron/4thr/demand/4K", Opteron270(), 4, units.Size4K, true},
	}
}

func (cfg equivCfg) mk(t testing.TB) *Context {
	pt := pagetable.New()
	if !cfg.demand {
		mapRange(t, pt, 0, 4*units.MB, cfg.ps)
	}
	m := New(cfg.model)
	m.AttachProcess(pt)
	ctxs, err := m.Configure(cfg.threads)
	if err != nil {
		t.Fatal(err)
	}
	c := ctxs[0]
	c.SetPageHint(cfg.ps)
	if cfg.demand {
		c.OnFault = demandPager(pt)
	}
	return c
}

// shootChunk queues the shootdowns a THP promotion or demotion of va's 2 MB
// chunk issues: every 4 KB page of the chunk, then the chunk itself.
func shootChunk(c *Context, va units.Addr) {
	chunk := va &^ units.Addr(units.PageSize2M-1)
	for p := chunk; p < chunk+units.Addr(units.PageSize2M); p += units.Addr(units.PageSize4K) {
		c.InvalidatePage(p, units.Size4K)
	}
	c.InvalidatePage(chunk, units.Size2M)
}

// demandPager returns an OnFault handler that maps the touched 4 KB page
// read-write with the frame mapRange(pt, 0, …, Size4K) would give it.
func demandPager(pt *pagetable.Table) FaultHandler {
	return func(va units.Addr, write bool) error {
		page := va &^ units.Addr(units.PageSize4K-1)
		return pt.Map(page, units.Size4K, uint64(int64(page)/units.PageSize4K), pagetable.ProtRW)
	}
}

// TestAccessRangeEquivalenceProperty: for arbitrary (start, count, stride,
// write) on every configuration, the bulk path, elementwise Load/Store, and
// the AccessRangeScalar reference must produce byte-identical counters.
func TestAccessRangeEquivalenceProperty(t *testing.T) {
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			f := func(startRaw uint16, countRaw uint8, strideRaw uint16, write bool) bool {
				count := int(countRaw)%200 + 1
				// Exercise both bulk regimes: sub-line strides (coalesced
				// line runs) and line-or-larger strides (per-element probes).
				var stride int64
				if strideRaw%2 == 0 {
					stride = int64(strideRaw/2)%63 + 1
				} else {
					stride = int64(strideRaw)%3000 + 64
				}
				start := units.Addr(startRaw)
				// Keep within the mapped range.
				if int64(start)+int64(count)*stride >= 4*units.MB {
					return true
				}
				a, b, s := cfg.mk(t), cfg.mk(t), cfg.mk(t)
				a.AccessRange(start, count, stride, write)
				for i := 0; i < count; i++ {
					if write {
						b.Store(start + units.Addr(int64(i)*stride))
					} else {
						b.Load(start + units.Addr(int64(i)*stride))
					}
				}
				s.AccessRangeScalar(start, count, stride, write)
				if a.Ctr != b.Ctr {
					t.Logf("bulk != elementwise:\nbulk:  %+v\nelem:  %+v", a.Ctr, b.Ctr)
					return false
				}
				if a.Ctr != s.Ctr {
					t.Logf("bulk != scalar reference:\nbulk:   %+v\nscalar: %+v", a.Ctr, s.Ctr)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAccessRangeNegativeStrideEquivalence: the bulk path walks descending
// ranges natively (page segments and line runs mirrored downward) and must
// match both elementwise accesses and the scalar reference exactly.
func TestAccessRangeNegativeStrideEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			for _, stride := range []int64{-8, -24, -136, -4096, -9000} {
				a, b, s := cfg.mk(t), cfg.mk(t), cfg.mk(t)
				const count = 300
				start := units.Addr(3 * units.MB)
				a.AccessRange(start, count, stride, true)
				for i := 0; i < count; i++ {
					b.Store(start + units.Addr(int64(i)*stride))
				}
				s.AccessRangeScalar(start, count, stride, true)
				if a.Ctr != b.Ctr {
					t.Errorf("stride %d: bulk != elementwise:\nrange: %+v\nelem:  %+v", stride, a.Ctr, b.Ctr)
				}
				if a.Ctr != s.Ctr {
					t.Errorf("stride %d: bulk != scalar:\nrange:  %+v\nscalar: %+v", stride, a.Ctr, s.Ctr)
				}
			}
		})
	}
}

// TestAccessRangeWriteUpgradeEquivalence covers a write range over pages a
// read range just translated: the warm DTLB entries serve the stores, and
// the bulk and scalar paths must agree on every counter.
func TestAccessRangeWriteUpgradeEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			a, b := cfg.mk(t), cfg.mk(t)
			const count, stride = 4000, 24
			a.AccessRange(0, count, stride, false)
			a.AccessRange(0, count, stride, true)
			b.AccessRangeScalar(0, count, stride, false)
			b.AccessRangeScalar(0, count, stride, true)
			if a.Ctr != b.Ctr {
				t.Errorf("write-after-read counters diverge:\nbulk:   %+v\nscalar: %+v", a.Ctr, b.Ctr)
			}
		})
	}
}

// TestFetchRangeEquivalenceProperty: FetchRange must match elementwise Fetch
// for arbitrary positive-stride runs.
func TestFetchRangeEquivalenceProperty(t *testing.T) {
	cfg := equivConfigs()[0]
	f := func(startRaw uint16, countRaw uint8, strideRaw uint16) bool {
		count := int(countRaw)%100 + 1
		stride := int64(strideRaw)%(2*units.PageSize4K) + 1
		start := units.Addr(startRaw)
		if int64(start)+int64(count)*stride >= 4*units.MB {
			return true
		}
		a, b := cfg.mk(t), cfg.mk(t)
		a.FetchRange(start, count, stride)
		for i := 0; i < count; i++ {
			b.Fetch(start + units.Addr(int64(i)*stride))
		}
		return a.Ctr == b.Ctr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStreamPrefetcherCheapensSequentialMisses(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, 8*units.MB, units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)

	// Sequential stream: misses after the first line of each page are
	// prefetched.
	ctxs, _ := m.Configure(1)
	seq := ctxs[0]
	seq.AccessRange(0, 1<<16, 64, false) // one access per line, 4MB

	ctxs, _ = m.Configure(1)
	rnd := ctxs[0]
	// Strided past any prefetch window (stays within the mapped 8MB).
	rnd.AccessRange(0, 1<<10, 8192, false)

	if seq.Ctr.L2Misses == 0 || rnd.Ctr.L2Misses == 0 {
		t.Fatal("expected misses in both runs")
	}
	seqPer := float64(seq.Ctr.MemCyc) / float64(seq.Ctr.L2Misses)
	rndPer := float64(rnd.Ctr.MemCyc) / float64(rnd.Ctr.L2Misses)
	if seqPer >= rndPer {
		t.Errorf("sequential misses cost %.0f cyc vs strided %.0f; prefetcher missing", seqPer, rndPer)
	}
	if rndPer != float64(DefaultCosts().MemCyc) {
		t.Errorf("strided misses cost %.0f, want full %d", rndPer, DefaultCosts().MemCyc)
	}
}

func TestPrefetcherStopsAtPageBoundary(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, units.MB, units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	c := ctxs[0]
	// 128 sequential lines span two pages: two full-cost misses (one per
	// page head), the rest prefetched.
	c.AccessRange(0, 128, 64, false)
	costs := DefaultCosts()
	wantMem := 2*costs.MemCyc + 126*costs.StreamCyc
	if c.Ctr.MemCyc != wantMem {
		t.Errorf("MemCyc = %d, want %d (prefetch must break at 4KB boundaries)", c.Ctr.MemCyc, wantMem)
	}
}

func TestComputeAndWait(t *testing.T) {
	pt := pagetable.New()
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	c := ctxs[0]
	c.Compute(100)
	c.Wait(50)
	if c.Ctr.Busy != 150 || c.Ctr.BarrierCyc != 50 {
		t.Errorf("busy=%d barrier=%d", c.Ctr.Busy, c.Ctr.BarrierCyc)
	}
}

func TestInvalidatePageForcesRewalk(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, units.MB, units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	c := ctxs[0]
	c.Load(0)
	walks := c.Ctr.DTLBWalks()
	c.Load(8) // same page: no walk
	if c.Ctr.DTLBWalks() != walks {
		t.Fatal("unexpected walk")
	}
	c.InvalidatePage(0, units.Size4K)
	c.Load(16)
	if c.Ctr.DTLBWalks() != walks+1 {
		t.Error("shootdown did not force a re-walk")
	}
}

// TestFaultHandlerRetries: a demand-paging handler maps the page a store
// faults on, and the store retries and completes.
func TestFaultHandlerRetries(t *testing.T) {
	pt := pagetable.New() // nothing mapped
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	c := ctxs[0]
	faults := 0
	c.OnFault = func(va units.Addr, write bool) error {
		faults++
		return pt.Map(va&^units.Addr(units.PageSize4K-1), units.Size4K, 1, pagetable.ProtRW)
	}
	c.Store(0x10) // store to an unmapped page: fault, map, retry
	if faults != 1 {
		t.Errorf("fault handler ran %d times, want 1", faults)
	}
	if c.Ctr.Stores != 1 || c.Ctr.SoftFaults != 1 {
		t.Errorf("stores=%d soft faults=%d after fault service, want 1 and 1", c.Ctr.Stores, c.Ctr.SoftFaults)
	}
}

// TestUnhandledFaultPanics: an access no handler can service is a
// simulation bug and panics — a load of unmapped memory with no handler,
// and a store whose walk finds a read-only page even with a handler
// installed, which never sees it.
func TestUnhandledFaultPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic (simulation bug trap)", name)
			}
		}()
		f()
	}
	pt := pagetable.New() // nothing mapped
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	mustPanic("access to unmapped memory", func() { ctxs[0].Load(0xdead000) })

	if err := pt.Map(0, units.Size4K, 1, pagetable.ProtRead); err != nil {
		t.Fatal(err)
	}
	c := ctxs[0]
	c.OnFault = func(va units.Addr, write bool) error {
		t.Errorf("handler called for a write to a read-only page at %#x", va)
		return nil
	}
	mustPanic("store to a read-only page", func() { c.Store(0x10) })
	c.Load(0x10) // a read of a read-only page is fine
	if c.Ctr.SoftFaults != 0 {
		t.Errorf("soft faults = %d, want 0", c.Ctr.SoftFaults)
	}
}

func TestSMTInterleavePolicyNoFlush(t *testing.T) {
	model := XeonHT()
	model.SMT = SMTInterleave
	pt := pagetable.New()
	mapRange(t, pt, 0, 16*units.MB, units.Size4K)
	m := New(model)
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(8)
	c := ctxs[0]
	c.AccessRange(0, 1000, 8192, false)
	if c.Ctr.SMTSwitches != 0 {
		t.Error("interleaved SMT must not charge flush penalties")
	}
	if !c.hasSibling {
		t.Error("sibling expected at 8 threads")
	}
}

func TestL2PartitionAcrossChipSharers(t *testing.T) {
	// Xeon: the chip L2 is shared by 2 cores at 4 threads (half each) and
	// by 4 contexts at 8 threads (quarter each). Opteron L2 is private:
	// never partitioned.
	for _, tc := range []struct {
		model   Model
		threads int
		share   int64
	}{
		{XeonHT(), 4, 2},
		{XeonHT(), 8, 4},
		{Opteron270(), 4, 1},
	} {
		c := newCtx(t, tc.model, tc.threads, units.Size4K, 4*units.MB)[0]
		lines := int(tc.model.L2.SizeBytes / tc.share / units.CacheLineSize)
		if !holdsExactly(c, 0, lines, units.CacheLineSize, l2Misses) {
			t.Errorf("%s at %d threads: the L2 does not hold exactly %d lines (1/%d of it)",
				tc.model.Name, tc.threads, lines, tc.share)
		}
	}
}

func TestShootdownMailboxIsAsynchronous(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, units.MB, units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(2)
	victim := ctxs[0]

	victim.Load(0) // fill the translation
	walks := victim.Ctr.DTLBWalks()

	// A foreign goroutine queues the shootdown (the THP/SCASH hook calls
	// victim.InvalidatePage); the victim's TLB structures are untouched
	// until its own next access (IPI semantics).
	victim.InvalidatePage(0, units.Size4K)
	if !victim.shootFlag.Load() {
		t.Fatal("shootdown not queued")
	}
	if victim.dtlb.Access(units.Size4K.VPN(0), units.Size4K) == tlb.Miss {
		t.Fatal("shootdown mutated the TLB before the owner drained it")
	}
	victim.Load(8) // drains the mailbox, then must re-walk
	if victim.Ctr.DTLBWalks() != walks+1 {
		t.Errorf("walks = %d, want %d (re-walk after drained shootdown)",
			victim.Ctr.DTLBWalks(), walks+1)
	}
	// The drained mailbox takes the next shootdown the same way.
	victim.Load(16) // hit
	victim.InvalidatePage(0, units.Size4K)
	victim.Load(24)
	if victim.Ctr.DTLBWalks() != walks+2 {
		t.Errorf("walks after second shootdown = %d, want %d", victim.Ctr.DTLBWalks(), walks+2)
	}
}

// TestPrefetcherRunBrokenByL2Hit is the regression test for the stale
// lastMissLine bug: an L1-miss/L2-hit used to leave the previous miss run's
// tail line in place, so a later miss at tail+1 was wrongly charged the
// prefetched StreamCyc cost. The scenario builds three lines in one L1 set
// (Opteron L1 is 64KB 2-way: lines 512 apart conflict), evicts the first,
// re-reads it (L2 hit — breaks any run), then misses at lastMissLine+1.
func TestPrefetcherRunBrokenByL2Hit(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, units.MB, units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	c := ctxs[0]
	costs := DefaultCosts()

	line := func(l int64) units.Addr { return units.Addr(l * units.CacheLineSize) }
	// Three conflicting lines fill the 2-way set and evict line 100 from L1;
	// all three stay resident in the 16-way L2. None are sequential, so each
	// costs the full MemCyc. lastMissLine ends at 1124.
	c.Load(line(100))
	c.Load(line(612))
	c.Load(line(1124))
	// L1 miss, L2 hit: no memory access, and the miss run state must clear.
	c.Load(line(100))
	if c.Ctr.L2Hits != 1 {
		t.Fatalf("L2Hits = %d, want 1 (line 100 should be L2-resident)", c.Ctr.L2Hits)
	}
	// Line 1125 == lastMissLine+1 and 1125%64 != 0: with the stale-run bug
	// this was charged StreamCyc; it must cost the full MemCyc.
	c.Load(line(1125))
	// Line 1126 genuinely continues a run and is prefetched.
	c.Load(line(1126))

	wantMem := 4*costs.MemCyc + costs.StreamCyc
	if c.Ctr.MemCyc != wantMem {
		t.Errorf("MemCyc = %d, want %d (4 full misses + 1 prefetched)", c.Ctr.MemCyc, wantMem)
	}
	if c.Ctr.L2Misses != 5 {
		t.Errorf("L2Misses = %d, want 5", c.Ctr.L2Misses)
	}
}

// TestPrefetcherFirstMissAtLineOne pins the latent zero-value bug the
// lastMissValid flag also fixes: a fresh context's very first miss at line 1
// used to look like a continuation of a run ending at line 0.
func TestPrefetcherFirstMissAtLineOne(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, units.MB, units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	c := ctxs[0]
	c.Load(units.Addr(units.CacheLineSize)) // line 1, first access ever
	if want := DefaultCosts().MemCyc; c.Ctr.MemCyc != want {
		t.Errorf("first miss at line 1 cost %d, want full %d", c.Ctr.MemCyc, want)
	}
}

// TestShootdownDuringBulkRange: shootdowns queued from another goroutine
// land mid-AccessRange (the bulk path checks the mailbox at drain-window
// boundaries) and the resulting counters still match the scalar path given
// the same delivery point.
func TestShootdownDuringBulkRange(t *testing.T) {
	cfg := equivConfigs()[0]
	const count = 6000 // spans ~12 pages at stride 8
	run := func(bulk bool) *Context {
		c := cfg.mk(t)
		// Prime the TLBs over the range so the shootdown has entries to kill.
		c.AccessRange(0, count, 8, false)
		// Shoot down every page the range primed from another goroutine;
		// the join guarantees the invalidations are pending when the range
		// starts, so the bulk path must drain them at its first element's
		// poll.
		done := make(chan struct{})
		go func() {
			defer close(done)
			shootChunk(c, 0)
		}()
		<-done
		if bulk {
			c.AccessRange(0, count, 8, false)
		} else {
			c.AccessRangeScalar(0, count, 8, false)
		}
		return c
	}
	clean := cfg.mk(t)
	clean.AccessRange(0, count, 8, false)
	clean.AccessRange(0, count, 8, false)

	b, s := run(true), run(false)
	if b.shootFlag.Load() {
		t.Error("bulk path finished with shootdowns still pending")
	}
	if b.Ctr != s.Ctr {
		t.Errorf("counters diverge after mid-range shootdown:\nbulk:   %+v\nscalar: %+v", b.Ctr, s.Ctr)
	}
	if b.Ctr.DTLBWalks() <= clean.Ctr.DTLBWalks() {
		t.Errorf("shootdowns caused no extra walks: got %d, clean run %d",
			b.Ctr.DTLBWalks(), clean.Ctr.DTLBWalks())
	}
}

// TestShootdownConcurrentWithBulkRange is the -race stress variant: another
// goroutine hammers the mailbox while a bulk range is in flight. Counter
// values are timing-dependent, so only invariants are asserted: the access
// count is exact and the mailbox is drained by the next access.
func TestShootdownConcurrentWithBulkRange(t *testing.T) {
	cfg := equivConfigs()[0]
	c := cfg.mk(t)
	const count = 200000
	const shots = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < shots; i++ {
			c.InvalidatePage(units.Addr(int64(i%16)*units.PageSize4K), units.Size4K)
			runtime.Gosched() // interleave with the bulk run in flight
		}
	}()
	c.AccessRange(0, count, 8, false)
	<-done
	if c.Ctr.Loads != count {
		t.Errorf("Loads = %d, want %d", c.Ctr.Loads, count)
	}
	c.Load(0) // any access drains whatever arrived after the range finished
	if c.shootFlag.Load() {
		t.Error("mailbox still flagged after a post-range access")
	}
}
