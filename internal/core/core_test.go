package core

import (
	"testing"

	"hugeomp/internal/faultinject"
	"hugeomp/internal/machine"
	"hugeomp/internal/omp"
	"hugeomp/internal/units"
)

func sys(t *testing.T, policy PagePolicy) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Model:       machine.Opteron270(),
		Policy:      policy,
		PhysBytes:   1 * units.GB,
		SharedBytes: 64 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPolicy4KBacking(t *testing.T) {
	s := sys(t, Policy4K)
	a := s.MustArray("x", 1024)
	wr, err := s.PT.Translate(a.Base)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Entry.Size != units.Size4K {
		t.Errorf("4K policy backed by %v", wr.Entry.Size)
	}
	if s.FS != nil {
		t.Error("4K policy mounted hugetlbfs")
	}
}

func TestPolicy2MBackingAndPreallocation(t *testing.T) {
	s := sys(t, Policy2M)
	if s.FS == nil {
		t.Fatal("2M policy needs hugetlbfs")
	}
	// Preallocation: the whole pool is reserved before any allocation.
	if got := s.Phys.Used2M(); got < 32 {
		t.Errorf("pool reserved %d large frames, want >= 32 (64MB)", got)
	}
	a := s.MustArray("x", 1024)
	wr, err := s.PT.Translate(a.Base)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Entry.Size != units.Size2M {
		t.Errorf("2M policy backed by %v", wr.Entry.Size)
	}
}

func TestPolicyMixedSplitsBySize(t *testing.T) {
	s := sys(t, PolicyMixed)
	small := s.MustArray("small", 128)                 // 1KB -> 4K space
	big := s.MustArray("big", int(MixedThreshold/8)+1) // >= threshold -> 2M space
	if ws, _ := s.PT.Translate(small.Base); ws.Entry.Size != units.Size4K {
		t.Errorf("small allocation backed by %v", ws.Entry.Size)
	}
	if wb, _ := s.PT.Translate(big.Base); wb.Entry.Size != units.Size2M {
		t.Errorf("big allocation backed by %v", wb.Entry.Size)
	}
	if s.spaceFor(1).PageSize() != units.Size4K || s.spaceFor(MixedThreshold).PageSize() != units.Size2M {
		t.Error("data page size policy wrong")
	}
}

func TestArrayLoadStoreSimulates(t *testing.T) {
	s := sys(t, Policy4K)
	rt, err := s.NewRT(1)
	if err != nil {
		t.Fatal(err)
	}
	a := s.MustArray("v", 100)
	c := rt.Contexts()[0]
	a.Store(c, 3, 42.5)
	if got := a.Load(c, 3); got != 42.5 {
		t.Errorf("Load = %v", got)
	}
	if c.Ctr.Loads != 1 || c.Ctr.Stores != 1 {
		t.Errorf("counters: %d loads %d stores", c.Ctr.Loads, c.Ctr.Stores)
	}
}

func TestIntsRoundTrip(t *testing.T) {
	s := sys(t, Policy4K)
	rt, _ := s.NewRT(1)
	ix := s.MustInts("idx", 10)
	c := rt.Contexts()[0]
	ix.Store(c, 7, -5)
	if got := ix.Load(c, 7); got != -5 {
		t.Errorf("Ints.Load = %d", got)
	}
	if ix.Len() != 10 {
		t.Error("Len")
	}
}

func TestFootprintAccounting(t *testing.T) {
	s := sys(t, Policy2M)
	s.MustArray("a", 1<<20) // 8MB
	if got := s.DataFootprint(); got != 8*units.MB {
		t.Errorf("data footprint = %s", units.HumanBytes(got))
	}
	if _, err := s.NewCodeRegion("main", 100*units.KB); err != nil {
		t.Fatal(err)
	}
	if got := s.InstrFootprint(); got != units.AlignUp(100*units.KB, units.PageSize4K) {
		t.Errorf("instr footprint = %s", units.HumanBytes(got))
	}
}

func TestSealStopsGlobals(t *testing.T) {
	s := sys(t, PolicyMixed)
	s.Seal()
	if _, err := s.NewArray("late", 8); err == nil {
		t.Error("NewArray after Seal should fail")
	}
	// Dynamic allocation still allowed.
	if _, err := s.Malloc(4096); err != nil {
		t.Errorf("Malloc after seal: %v", err)
	}
}

func TestPoolExhaustionSurfacesAsError(t *testing.T) {
	s, err := NewSystem(Config{
		Model:       machine.Opteron270(),
		Policy:      Policy2M,
		PhysBytes:   256 * units.MB,
		SharedBytes: 8 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewArray("toobig", int(16*units.MB/8)); err == nil {
		t.Error("allocation beyond the preallocated pool should fail")
	}
}

func TestHintPrimedByPolicy(t *testing.T) {
	s := sys(t, Policy2M)
	rt, err := s.NewRT(2)
	if err != nil {
		t.Fatal(err)
	}
	a := s.MustArray("x", 4096)
	// A cold access works and is attributed to the 2M class.
	c := rt.Contexts()[0]
	a.Load(c, 0)
	if c.Ctr.DTLBWalks2M != 1 || c.Ctr.DTLBWalks4K != 0 {
		t.Errorf("walks 2M=%d 4K=%d", c.Ctr.DTLBWalks2M, c.Ctr.DTLBWalks4K)
	}
}

func TestEndToEndParallelSum(t *testing.T) {
	// The paper's Algorithm 3.1: parallel sum of a large array, on both
	// page policies; results identical, 2MB never slower.
	run := func(policy PagePolicy) (float64, uint64, uint64) {
		s := sys(t, policy)
		rt, err := s.NewRT(4)
		if err != nil {
			t.Fatal(err)
		}
		const n = 1 << 18 // 2MB of data
		arr := s.MustArray("array", n)
		for i := range arr.Data {
			arr.Data[i] = float64(i % 7)
		}
		sum := rt.ParallelForReduce(nil, n, omp.For{Schedule: omp.Static}, 0,
			func(tid int, c *machine.Context, lo, hi int) float64 {
				arr.LoadRange(c, lo, hi)
				p := 0.0
				for i := lo; i < hi; i++ {
					p += arr.Data[i]
				}
				return p
			}, func(x, y float64) float64 { return x + y })
		total := rt.TotalCounters()
		return sum, rt.WallCycles(), total.DTLBWalks()
	}
	sum4, wall4, walks4 := run(Policy4K)
	sum2, wall2, walks2 := run(Policy2M)
	if sum4 != sum2 {
		t.Errorf("results differ: %v vs %v", sum4, sum2)
	}
	if walks2 >= walks4 {
		t.Errorf("2M walks %d >= 4K walks %d", walks2, walks4)
	}
	if wall2 > wall4 {
		t.Errorf("2M wall %d > 4K wall %d", wall2, wall4)
	}
}

func TestPolicyTransparentPromotes(t *testing.T) {
	s, err := NewSystem(Config{
		Model:       machine.Opteron270(),
		Policy:      PolicyTransparent,
		PhysBytes:   1 * units.GB,
		SharedBytes: 64 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.THP == nil {
		t.Fatal("transparent policy needs a THP manager")
	}
	const n = 1 << 19 // 4MB
	arr := s.MustArray("x", n)
	rt, err := s.NewRT(2)
	if err != nil {
		t.Fatal(err)
	}
	c := rt.Contexts()[0]
	// First pass demand-faults everything; reservations promote to 2MB.
	arr.StoreRange(c, 0, n)
	if c.Ctr.SoftFaults == 0 {
		t.Error("no demand-paging faults recorded")
	}
	if s.THP.Stats.Promotions == 0 {
		t.Error("no chunks promoted despite full population")
	}
	// Second pass translates through 2MB mappings once the array's chunks
	// are shot down.
	before2M := c.Ctr.DTLBWalks2M
	for va := arr.Addr(0) &^ units.Addr(units.PageSize2M-1); va < arr.Addr(n); va += units.Addr(units.PageSize2M) {
		c.InvalidatePage(va, units.Size2M)
	}
	arr.LoadRange(c, 0, n)
	if c.Ctr.DTLBWalks2M <= before2M {
		t.Error("post-promotion walks are not using 2MB mappings")
	}
	if got := s.THP.PromotedBytes(); got < 4*units.MB {
		t.Errorf("promoted bytes = %s", units.HumanBytes(got))
	}
}

func TestPolicyTransparentSharedAcrossThreads(t *testing.T) {
	s, err := NewSystem(Config{
		Model:       machine.Opteron270(),
		Policy:      PolicyTransparent,
		PhysBytes:   512 * units.MB,
		SharedBytes: 32 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr := s.MustArray("y", 1<<18)
	rt, err := s.NewRT(4)
	if err != nil {
		t.Fatal(err)
	}
	rt.ParallelFor(nil, arr.Len(), omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			arr.StoreRange(c, lo, hi)
			for i := lo; i < hi; i++ {
				arr.Data[i] = float64(tid)
			}
		})
	// All threads faulted concurrently; mappings must be consistent.
	wr, err := s.PT.Translate(arr.Base)
	if err != nil {
		t.Fatalf("unmapped after parallel first touch: %v", err)
	}
	_ = wr
	total := rt.TotalCounters()
	if total.SoftFaults == 0 {
		t.Error("no faults recorded")
	}
}

func TestInjectedReserveFailureDegradesTo4K(t *testing.T) {
	plan := faultinject.New(0x5eed)
	plan.Enable(faultinject.SiteHugetlbReserve, 1) // every reservation fails
	s, err := NewSystem(Config{
		Model:       machine.Opteron270(),
		Policy:      Policy2M,
		PhysBytes:   1 * units.GB,
		SharedBytes: 64 * units.MB,
		Fault:       plan,
	})
	if err != nil {
		t.Fatalf("reservation failure must degrade, not fail: %v", err)
	}
	if !s.Degraded {
		t.Fatal("system not marked Degraded")
	}
	if s.FS != nil {
		t.Error("degraded system kept a hugetlbfs mount")
	}
	// The region is alive at the same base, on 4 KB pages.
	a := s.MustArray("x", 1024)
	if a.Base < HugeBase {
		t.Errorf("degraded array at %#x, below HugeBase", a.Base)
	}
	wr, err := s.PT.Translate(a.Base)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Entry.Size != units.Size4K {
		t.Errorf("degraded backing is %s, want 4KB", wr.Entry.Size)
	}
	if got := s.OSCounters().HugePageFallbacks; got != 1 {
		t.Errorf("HugePageFallbacks = %d, want 1", got)
	}
	if s.spaceFor(1*units.MB).PageSize() != units.Size4K {
		t.Error("data page size still reports 2MB after degradation")
	}
}

func TestNoHugePagesSentinel(t *testing.T) {
	s, err := NewSystem(Config{
		Model:       machine.Opteron270(),
		Policy:      PolicyMixed,
		PhysBytes:   1 * units.GB,
		SharedBytes: 64 * units.MB,
		HugePages:   NoHugePages,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Degraded {
		t.Fatal("HugePages = NoHugePages did not degrade")
	}
	// Mixed policy still splits by size; the "2MB" side is 4 KB-backed.
	big := s.MustArray("big", int(MixedThreshold/8)+1)
	wr, err := s.PT.Translate(big.Base)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Entry.Size != units.Size4K || big.Base < HugeBase {
		t.Errorf("big allocation at %#x size %s", big.Base, wr.Entry.Size)
	}
}
