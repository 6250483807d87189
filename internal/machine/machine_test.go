package machine

import (
	"reflect"
	"testing"

	"hugeomp/internal/pagetable"
	"hugeomp/internal/tlb"
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
		if c.HasSibling() {
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
		if !c.HasSibling() {
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
		m := New(tc.model)
		m.AttachProcess(pagetable.New())
		ctxs, err := m.Configure(tc.threads)
		if err != nil {
			t.Fatal(err)
		}
		full := tc.model.DTLB.L1.E4K.Entries
		if got := ctxs[0].DTLB().Spec().L1.E4K.Entries; got != full/tc.share {
			t.Errorf("%s at %d threads: DTLB entries = %d, want %d",
				tc.model.Name, tc.threads, got, full/tc.share)
		}
		if got, want := ctxs[0].l1.Lines(), int(tc.model.L1D.Partition(tc.share).SizeBytes/units.CacheLineSize); got != want {
			t.Errorf("%s at %d threads: L1 lines = %d, want %d", tc.model.Name, tc.threads, got, want)
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
// NiagaraT1's L1 and L2 at most counts) included — every context's caches
// are valid slices no bigger than their share, and the contexts of one core
// together never hold more entries of any TLB structure than the model has.
func TestConfigureEveryThreadCount(t *testing.T) {
	for _, model := range AllModels() {
		for n := 1; n <= model.MaxThreads(); n++ {
			m := New(model)
			m.AttachProcess(pagetable.New())
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
			perL2 := map[int]int{}
			for _, c := range ctxs {
				perL2[domain(c)]++
			}
			for _, c := range ctxs {
				l2Lines := int(model.L2.SizeBytes / units.CacheLineSize)
				if share := perL2[domain(c)]; c.l2.Lines()*share > l2Lines || c.l2.Lines()*share*2 <= l2Lines {
					t.Errorf("%s at %d threads: ctx %d L2 slice of %d lines for %d sharers of %d",
						model.Name, n, c.ID, c.l2.Lines(), share, l2Lines)
				}
			}
			held := map[int][8]int{} // per core: entries of each TLB structure
			for _, c := range ctxs {
				h := held[m.CoreOf(c)]
				for i, e := range tlbEntries(c.ITLB().Spec(), c.DTLB().Spec()) {
					h[i] += e
				}
				held[m.CoreOf(c)] = h
			}
			hw := tlbEntries(model.ITLB, model.DTLB)
			for core, h := range held {
				for i := range h {
					if h[i] > hw[i] {
						t.Errorf("%s at %d threads: core %d holds %d entries of TLB structure %d, the hardware has %d",
							model.Name, n, core, h[i], i, hw[i])
					}
				}
			}
		}
	}
}

// tlbEntries lists the entry counts of the eight structures of an ITLB and
// a DTLB stack.
func tlbEntries(itlb, dtlb tlb.Spec) [8]int {
	var e [8]int
	for i, s := range []tlb.Spec{itlb, dtlb} {
		e[4*i] = s.L1.E4K.Entries
		e[4*i+1] = s.L1.E2M.Entries
		e[4*i+2] = s.L2.E4K.Entries
		e[4*i+3] = s.L2.E2M.Entries
	}
	return e
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
	if got := xeon.TLBReach(units.Size2M); got != 64*units.MB {
		t.Errorf("Xeon 2MB reach = %s, want 64MB", units.HumanBytes(got))
	}
	if got := opt.TLBReach(units.Size2M); got != 16*units.MB {
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
	if !ctxs[0].HasSibling() {
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
