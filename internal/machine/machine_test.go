package machine

import (
	"reflect"
	"testing"

	"hugeomp/internal/pagetable"
	"hugeomp/internal/profile"
	"hugeomp/internal/units"
)

// mapRange maps [base, base+size) with pages of the given class.
func mapRange(t testing.TB, pt *pagetable.Table, base units.Addr, size int64, ps units.PageSize) {
	t.Helper()
	pfn := uint64(0)
	step := ps.Bytes()
	if ps == units.Size2M {
		pfn = 1 << 20 // keep large frames away from small ones
	}
	for off := int64(0); off < size; off += step {
		p := pfn + uint64(off/units.PageSize4K)
		if ps == units.Size2M {
			p = pfn + uint64(off/units.PageSize4K)
		}
		if err := pt.Map(base+units.Addr(off), ps, p, pagetable.ProtRW); err != nil {
			t.Fatal(err)
		}
	}
}

// holds reports whether a structure keeps n units, stride bytes apart from
// va: whether sweeping them a second time adds nothing to the misses that
// misses reads. Caches and TLBs index their sets by address modulo the set
// count and evict LRU within a set, so a structure holds n consecutive units
// exactly when n is at most its capacity, and a slice's size shows through
// counters alone.
func holds(c *Context, va units.Addr, n int, stride int64, fetch bool, misses func(*profile.Counters) uint64) bool {
	sweep := func() {
		if fetch {
			c.FetchRange(va, n, stride)
		} else {
			c.AccessRange(va, n, stride, false)
		}
	}
	sweep()
	before := misses(&c.Ctr)
	sweep()
	return misses(&c.Ctr) == before
}

// holdsExactly reports whether a structure's capacity is exactly n units.
func holdsExactly(c *Context, va units.Addr, n int, stride int64, misses func(*profile.Counters) uint64) bool {
	return holds(c, va, n, stride, false, misses) && !holds(c, va, n+1, stride, false, misses)
}

func l1Misses(p *profile.Counters) uint64     { return p.L1Misses }
func l2Misses(p *profile.Counters) uint64     { return p.L2Misses }
func dtlbL1Miss4K(p *profile.Counters) uint64 { return p.DTLBL1Miss4K }
func dtlbL1Miss2M(p *profile.Counters) uint64 { return p.DTLBL1Miss2M }
func dtlbWalks4K(p *profile.Counters) uint64  { return p.DTLBWalks4K }
func dtlbWalks2M(p *profile.Counters) uint64  { return p.DTLBWalks2M }
func itlbWalks(p *profile.Counters) uint64    { return p.ITLBWalks }

func newCtx(t *testing.T, model Model, threads int, ps units.PageSize, dataBytes int64) []*Context {
	t.Helper()
	pt := pagetable.New()
	base := units.Addr(0)
	mapRange(t, pt, base, units.AlignUp(dataBytes, ps.Bytes()), ps)
	m := New(model)
	m.AttachProcess(pt)
	ctxs, err := m.Configure(threads)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ctxs {
		c.SetPageHint(ps)
	}
	return ctxs
}

func TestPlacementSpreadsCoresFirst(t *testing.T) {
	m := New(XeonHT())
	m.AttachProcess(pagetable.New())
	ctxs, err := m.Configure(4)
	if err != nil {
		t.Fatal(err)
	}
	cores := map[int]int{}
	for _, c := range ctxs {
		cores[m.CoreOf(c)]++
		if c.hasSibling {
			t.Error("4 threads on 4 cores should have no SMT siblings")
		}
	}
	if len(cores) != 4 {
		t.Errorf("4 threads placed on %d cores, want 4", len(cores))
	}
	ctxs, err = m.Configure(8)
	if err != nil {
		t.Fatal(err)
	}
	cores = map[int]int{}
	for _, c := range ctxs {
		cores[m.CoreOf(c)]++
		if !c.hasSibling {
			t.Error("8 threads on 4 cores: every context has a sibling")
		}
	}
	for core, n := range cores {
		if n != 2 {
			t.Errorf("core %d has %d contexts, want 2", core, n)
		}
	}
}

func TestPlacementRejectsOversubscription(t *testing.T) {
	m := New(Opteron270())
	m.AttachProcess(pagetable.New())
	if _, err := m.Configure(5); err == nil {
		t.Error("Opteron accepts 5 threads but has only 4 contexts")
	}
	if _, err := m.Configure(0); err == nil {
		t.Error("zero threads accepted")
	}
}

// TestSMTPartitionHalvesTLB: a core's TLBs are sliced by the same context
// count as its L1 — halved for the Xeon's two hyper-threads, and divided by
// three or four on a NiagaraT1 core running that many threads.
func TestSMTPartitionHalvesTLB(t *testing.T) {
	for _, tc := range []struct {
		model   Model
		threads int
		share   int
	}{
		{XeonHT(), 8, 2},
		{XeonHT(), 4, 1},
		{NiagaraT1(), 8, 1},
		{NiagaraT1(), 16, 2},
		{NiagaraT1(), 24, 3},
		{NiagaraT1(), 32, 4},
	} {
		c := newCtx(t, tc.model, tc.threads, units.Size4K, units.MB)[0]
		entries := tc.model.DTLB.L1.E4K.Entries / tc.share
		if !holdsExactly(c, 0, entries, units.PageSize4K, dtlbL1Miss4K) {
			t.Errorf("%s at %d threads: the L1 DTLB does not hold exactly %d 4 KB pages",
				tc.model.Name, tc.threads, entries)
		}
		lines := int(tc.model.L1D.Partition(tc.share).SizeBytes / units.CacheLineSize)
		if !holdsExactly(c, 0, lines, units.CacheLineSize, l1Misses) {
			t.Errorf("%s at %d threads: the L1 does not hold exactly %d lines", tc.model.Name, tc.threads, lines)
		}
	}
}

func TestSequentialAccessCountsOnePageWalkPerPage(t *testing.T) {
	ctxs := newCtx(t, Opteron270(), 1, units.Size4K, 64*units.KB)
	c := ctxs[0]
	// Touch every 8 bytes of 16 pages.
	c.AccessRange(0, 16*512, 8, false)
	if got := c.Ctr.DTLBWalks4K; got != 16 {
		t.Errorf("walks = %d, want 16 (one per page, all cold)", got)
	}
	if got := c.Ctr.Loads; got != 16*512 {
		t.Errorf("loads = %d", got)
	}
	// Second pass: the 16 pages fit the 32-entry L1 DTLB, no more walks.
	walks := c.Ctr.DTLBWalks4K
	c.AccessRange(0, 16*512, 8, false)
	if c.Ctr.DTLBWalks4K != walks {
		t.Errorf("warm pass added %d walks", c.Ctr.DTLBWalks4K-walks)
	}
}

func TestLargePagesReduceWalksForStrides(t *testing.T) {
	const span = 8 * units.MB
	// Stride of one 4 KB page over 8 MB: 2048 pages with 4 KB pages but
	// only 4 large pages.
	ctx4 := newCtx(t, Opteron270(), 1, units.Size4K, span)[0]
	ctx2 := newCtx(t, Opteron270(), 1, units.Size2M, span)[0]
	n := int(span / units.PageSize4K)
	for pass := 0; pass < 3; pass++ {
		ctx4.AccessRange(0, n, units.PageSize4K, false)
		ctx2.AccessRange(0, n, units.PageSize4K, false)
	}
	if ctx2.Ctr.DTLBWalks() >= ctx4.Ctr.DTLBWalks()/100 {
		t.Errorf("2MB walks = %d vs 4KB walks = %d; expected >100x reduction",
			ctx2.Ctr.DTLBWalks(), ctx4.Ctr.DTLBWalks())
	}
	if ctx2.Ctr.Busy >= ctx4.Ctr.Busy {
		t.Errorf("2MB busy = %d >= 4KB busy = %d", ctx2.Ctr.Busy, ctx4.Ctr.Busy)
	}
}

func TestScalarAndRangeEquivalence(t *testing.T) {
	// AccessRange must produce the same counters as elementwise Load.
	mk := func() *Context { return newCtx(t, Opteron270(), 1, units.Size4K, units.MB)[0] }
	a, b := mk(), mk()
	const n = 4096
	const stride = 24
	a.AccessRange(0, n, stride, false)
	for i := 0; i < n; i++ {
		b.Load(units.Addr(int64(i) * stride))
	}
	if a.Ctr != b.Ctr {
		t.Errorf("counter mismatch:\nrange:  %+v\nscalar: %+v", a.Ctr, b.Ctr)
	}
}

func TestWalkCyclesShorterFor2M(t *testing.T) {
	c4 := newCtx(t, Opteron270(), 1, units.Size4K, units.PageSize2M)[0]
	c2 := newCtx(t, Opteron270(), 1, units.Size2M, units.PageSize2M)[0]
	c4.Load(0)
	c2.Load(0)
	if c4.Ctr.WalkCyc != 2*DefaultCosts().WalkRefCyc {
		t.Errorf("4K walk cycles = %d", c4.Ctr.WalkCyc)
	}
	if c2.Ctr.WalkCyc != DefaultCosts().WalkRefCyc {
		t.Errorf("2M walk cycles = %d (one fewer level)", c2.Ctr.WalkCyc)
	}
}

func TestSMTFlushPenaltyOnXeonSiblings(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, 64*units.MB, units.Size4K)
	m := New(XeonHT())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(8)
	c := ctxs[0]
	if !c.smtFlush {
		t.Fatal("sibling context should have flush-on-switch enabled")
	}
	// Strided misses: every access a cache miss -> memory -> switch.
	c.AccessRange(0, 1000, 8192, false)
	if c.Ctr.SMTSwitches == 0 {
		t.Error("no SMT switches recorded on memory stalls")
	}
	if c.Ctr.FlushCycles != c.Ctr.SMTSwitches*DefaultCosts().FlushCyc {
		t.Error("flush cycle accounting inconsistent")
	}
	// At 4 threads there is no sibling and no flush penalty.
	ctxs, _ = m.Configure(4)
	c = ctxs[0]
	c.AccessRange(0, 1000, 8192, false)
	if c.Ctr.SMTSwitches != 0 {
		t.Error("flush penalty applied without a sibling")
	}
}

func TestFetchITLB(t *testing.T) {
	pt := pagetable.New()
	// Code segment: 1.6MB of 4K pages at 1GB.
	codeBase := units.Addr(units.GB)
	mapRange(t, pt, codeBase, int64(units.AlignUp(1600*units.KB, units.PageSize4K)), units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	c := ctxs[0]
	c.Fetch(codeBase)
	if c.Ctr.ITLBL1Miss != 1 || c.Ctr.ITLBWalks != 1 {
		t.Errorf("cold fetch: %d misses %d walks", c.Ctr.ITLBL1Miss, c.Ctr.ITLBWalks)
	}
	c.Fetch(codeBase + 8)
	if c.Ctr.ITLBL1Miss != 1 {
		t.Error("same-page fetch missed")
	}
	// A hot loop over a few pages stays resident: no further misses.
	for i := 0; i < 1000; i++ {
		for p := 0; p < 4; p++ {
			c.Fetch(codeBase + units.Addr(p)*4096)
		}
	}
	if c.Ctr.ITLBL1Miss > 4 {
		t.Errorf("hot code misses = %d, want <= 4", c.Ctr.ITLBL1Miss)
	}
}

// TestTrueSharingMode: SMT siblings never truly share a structure — each
// owns its DTLB and caches (the paper's §3.2 partitioning), so a page or
// line one sibling loaded is a walk and a miss for the other.
func TestTrueSharingMode(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, units.MB, units.Size4K)
	m := New(XeonHT())
	m.AttachProcess(pt)
	ctxs, err := m.Configure(8)
	if err != nil {
		t.Fatal(err)
	}
	var sib *Context
	for _, c := range ctxs[1:] {
		if m.CoreOf(c) == m.CoreOf(ctxs[0]) {
			sib = c
			break
		}
	}
	if sib == nil {
		t.Fatal("no sibling found")
	}
	if ctxs[0].dtlb == sib.dtlb || ctxs[0].l1 == sib.l1 || ctxs[0].l2 == sib.l2 {
		t.Error("SMT siblings share a DTLB or cache object")
	}
	ctxs[0].Load(0)
	sib.Load(8)
	if sib.Ctr.DTLBWalks() != 1 || sib.Ctr.L1Misses != 1 {
		t.Errorf("sibling saw its twin's fill: %d walks, %d L1 misses, want 1 and 1",
			sib.Ctr.DTLBWalks(), sib.Ctr.L1Misses)
	}
}

// TestConfigureEveryThreadCount: every built-in model builds its contexts
// at every thread count its hardware has — sharer counts that do not divide
// a shared cache's set count (XeonHT's per-chip L2 at 5–7 threads,
// NiagaraT1's L1 and L2 at most counts) included — every context's L2 is a
// slice no bigger than its share and more than half of it, and the contexts
// of one core together never hold more entries of any TLB structure than
// the model has. The ITLB has one level (Configure refuses a second) and
// counts a miss only when it walks.
func TestConfigureEveryThreadCount(t *testing.T) {
	const hugeVA = units.Addr(4 << 30)
	pt := pagetable.New()
	mapRange(t, pt, 0, 4*units.MB, units.Size4K)
	mapRange(t, pt, hugeVA, 64*units.PageSize2M, units.Size2M)
	for _, model := range AllModels() {
		d, i := model.DTLB, model.ITLB
		tlbs := []struct {
			va      units.Addr
			stride  int64
			fetch   bool
			entries int
			misses  func(*profile.Counters) uint64
		}{
			{0, units.PageSize4K, false, d.L1.E4K.Entries, dtlbL1Miss4K},
			{0, units.PageSize4K, false, d.L1.E4K.Entries + d.L2.E4K.Entries, dtlbWalks4K},
			{hugeVA, units.PageSize2M, false, d.L1.E2M.Entries, dtlbL1Miss2M},
			{hugeVA, units.PageSize2M, false, d.L1.E2M.Entries + d.L2.E2M.Entries, dtlbWalks2M},
			{0, units.PageSize4K, true, i.L1.E4K.Entries, itlbWalks},
			{hugeVA, units.PageSize2M, true, i.L1.E2M.Entries, itlbWalks},
		}
		for n := 1; n <= model.MaxThreads(); n++ {
			m := New(model)
			m.AttachProcess(pt)
			ctxs, err := m.Configure(n)
			if err != nil {
				t.Errorf("%s at %d threads: %v", model.Name, n, err)
				continue
			}
			domain := func(c *Context) int {
				if model.L2PerChip {
					return c.Chip
				}
				return m.CoreOf(c)
			}
			perL2, perCore := map[int]int{}, map[int]int{}
			for _, c := range ctxs {
				perL2[domain(c)]++
				perCore[m.CoreOf(c)]++
			}
			l2Lines := int(model.L2.SizeBytes / units.CacheLineSize)
			for _, c := range ctxs {
				share := perL2[domain(c)]
				if holds(c, 0, l2Lines/share+1, units.CacheLineSize, false, l2Misses) ||
					!holds(c, 0, l2Lines/(2*share)+1, units.CacheLineSize, false, l2Misses) {
					t.Errorf("%s at %d threads: ctx %d L2 slice is not in (%d, %d] lines for %d sharers of %d",
						model.Name, n, c.ID, l2Lines/(2*share), l2Lines/share, share, l2Lines)
				}
				k := perCore[m.CoreOf(c)]
				for j, s := range tlbs {
					if holds(c, s.va, s.entries/k+1, s.stride, s.fetch, s.misses) {
						t.Errorf("%s at %d threads: ctx %d holds more than its 1/%d of the %d entries of TLB structure %d",
							model.Name, n, c.ID, k, s.entries, j)
					}
				}
			}
		}
	}
}

// TestConfigureRejectsBadModels: a coherent model and a cache geometry that
// cannot be built are errors, not panics or silently ignored settings.
func TestConfigureRejectsBadModels(t *testing.T) {
	coherent := Opteron270()
	coherent.Coherent = true
	oddL2 := XeonHT()
	oddL2.L2.Ways = 7
	oddTLB := Opteron270()
	oddTLB.DTLB.L2.E4K.Ways = 3
	for _, model := range []Model{coherent, oddL2, oddTLB} {
		m := New(model)
		m.AttachProcess(pagetable.New())
		if _, err := m.Configure(1); err == nil {
			t.Errorf("%+v configured", model)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	m := New(Opteron270())
	if s := m.Seconds(2e9); s != 1.0 {
		t.Errorf("2e9 cycles at 2GHz = %v s, want 1", s)
	}
}

func TestTable1Reaches(t *testing.T) {
	// The two load-bearing Table 1 facts.
	xeon, opt := New(XeonHT()), New(Opteron270())
	if got := xeon.Model.DTLB.Coverage(units.Size2M); got != 64*units.MB {
		t.Errorf("Xeon 2MB reach = %s, want 64MB", units.HumanBytes(got))
	}
	if got := opt.Model.DTLB.Coverage(units.Size2M); got != 16*units.MB {
		t.Errorf("Opteron 2MB reach = %s, want 16MB", units.HumanBytes(got))
	}
}

func TestNiagaraInterleavedScaling(t *testing.T) {
	// The Niagara extension model: 32 hardware threads, no flush penalty.
	m := New(NiagaraT1())
	m.AttachProcess(pagetable.New())
	if NiagaraT1().MaxThreads() != 32 {
		t.Fatal("T1 has 32 hardware threads")
	}
	ctxs, err := m.Configure(32)
	if err != nil {
		t.Fatal(err)
	}
	if !ctxs[0].hasSibling {
		t.Error("fully loaded T1 cores have siblings")
	}
	if ctxs[0].smtFlush {
		t.Error("interleaved SMT must not flush on switch")
	}
	if _, ok := ModelByName("NiagaraT1"); !ok {
		t.Error("NiagaraT1 not discoverable by name")
	}
}

// TestModelByNameMatchesAllModels keeps the name lookup from drifting from
// the constructors: every built-in model comes back from ModelByName equal to
// the one AllModels builds, and an unknown name finds nothing.
func TestModelByNameMatchesAllModels(t *testing.T) {
	for _, want := range AllModels() {
		got, ok := ModelByName(want.Name)
		if !ok {
			t.Errorf("%s not found by name", want.Name)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ModelByName(%q) = %+v, want %+v", want.Name, got, want)
		}
	}
	if m, ok := ModelByName("Opteron"); ok {
		t.Errorf("unknown name found %+v", m)
	}
}
