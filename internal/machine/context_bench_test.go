package machine

import (
	"runtime"
	"testing"
	"time"

	"hugeomp/internal/pagetable"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

// Host cost of the access engines, in ns per simulated access, for each
// access pattern: `go test -run '^$' -bench . ./internal/machine/`. Each Ref
// benchmark runs its pattern's stream through the per-element reference
// engine. Dense, gather and random carry the regression floors `make bench`
// enforces (checkFloor); host noise on identical builds spans several ns,
// so compare runs with -count.

// The costs the floors guard, in ns per access, as last committed for these
// patterns (measured on a 1-proc host): a pattern more than twice as slow
// fails. Random also fails above maxRandomNs on hosts with at least 4 procs;
// smaller hosts are too noisy for an absolute bound.
const (
	denseBaseNs  = 1.55
	gatherBaseNs = 17.64
	randomBaseNs = 126.62
	maxRandomNs  = 200
)

// floorMinWall is the least timing a floor is judged on, so the framework's
// short calibration runs never trip it.
const floorMinWall = 50 * time.Millisecond

// checkFloor fails b if the timed loop's accesses cost more than maxNs each.
func checkFloor(b *testing.B, accesses int, maxNs float64) {
	el := b.Elapsed()
	if el < floorMinWall {
		return
	}
	ns := float64(el.Nanoseconds()) / float64(accesses)
	if ns > maxNs {
		b.Fatalf("%.2f ns/access over %v, floor %.2f ns/access", ns, el, maxNs)
	}
}

// perfCtx is the benchmarks' machine: one Opteron 270 context over a 64 MB
// region of 4 KB pages.
func perfCtx(b *testing.B) *Context {
	pt := pagetable.New()
	mapRange(b, pt, 0, 64*units.MB, units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, err := m.Configure(1)
	if err != nil {
		b.Fatal(err)
	}
	c := ctxs[0]
	c.SetPageHint(units.Size4K)
	return c
}

// Dense: a unit-stride run over 32 KB of 8-byte elements. The working set is
// L1-resident and warmed, so the measurement isolates the per-access
// bookkeeping rather than the L2-miss machinery.
const denseElems = 1 << 12

func benchDense(b *testing.B, run func(c *Context)) int {
	c := perfCtx(b)
	run(c) // warm caches and TLBs
	b.ReportAllocs()
	b.ResetTimer()
	accesses := 0
	for accesses < b.N {
		run(c)
		accesses += denseElems
	}
	return accesses
}

func BenchmarkAccessRangeDense(b *testing.B) {
	n := benchDense(b, func(c *Context) { c.AccessRange(0, denseElems, 8, false) })
	checkFloor(b, n, 2*denseBaseNs)
}

func BenchmarkAccessRangeDenseRef(b *testing.B) {
	benchDense(b, func(c *Context) { c.AccessRangeScalar(0, denseElems, 8, false) })
}

// Strided: 2048 accesses 8 KB apart over 16 MB, one line per element and
// most accesses missing the DTLB.
func BenchmarkAccessRangeStrided(b *testing.B) {
	c := perfCtx(b)
	const count = 1 << 11
	b.ResetTimer()
	for i := 0; i < b.N; i += count {
		c.AccessRange(0, count, 8192, false)
	}
}

// Translation outcomes: a 4 KB page-stride run, one element per page, over
// few enough pages that every element hits the 32-entry L1 DTLB once warm,
// over more than L1 holds but fewer than L1 plus the 512-entry L2 (every
// element an L2 hit that promotes), and over more than both hold (every
// element walks). They time translation inside one access, with no floor,
// and fail if a timed element has another outcome than want.
func benchPageStride(b *testing.B, pages int, want tlb.Outcome) {
	c := perfCtx(b)
	c.AccessRange(0, pages, units.PageSize4K, false) // warm the TLBs
	l2Hits, walks := c.Ctr.DTLBL2Hit, c.Ctr.DTLBWalks()
	b.ReportAllocs()
	b.ResetTimer()
	var elems uint64
	for elems < uint64(b.N) {
		c.AccessRange(0, pages, units.PageSize4K, false)
		elems += uint64(pages)
	}
	b.StopTimer()
	got := [2]uint64{c.Ctr.DTLBL2Hit - l2Hits, c.Ctr.DTLBWalks() - walks}
	var wantN [2]uint64 // L2 hits, walks
	switch want {
	case tlb.HitL2:
		wantN[0] = elems
	case tlb.Miss:
		wantN[1] = elems
	}
	if got != wantN {
		b.Fatalf("%d elements over %d pages: %d L2 hits and %d walks, want every one %v", elems, pages, got[0], got[1], want)
	}
}

func BenchmarkTranslateL1Hit(b *testing.B) { benchPageStride(b, 24, tlb.HitL1) }
func BenchmarkTranslateL2Hit(b *testing.B) { benchPageStride(b, 300, tlb.HitL2) }
func BenchmarkTranslateWalk(b *testing.B)  { benchPageStride(b, 4000, tlb.Miss) }

// Gather: a reused pseudo-random list of 131072 indices over a 1 MB vector —
// the simulated L2 capacity, the stress end of CG's gather — with 256 pages
// of DTLB footprint against a 32-entry L1 DTLB, so the pattern stays
// translation-bound.
const gatherElems = 1 << 17

func gatherIndexList() []int64 {
	idx := make([]int64, gatherElems)
	seed := uint64(1)
	for i := range idx {
		seed = seed*6364136223846793005 + 1442695040888963407
		idx[i] = int64(int(seed>>17) & (gatherElems - 1))
	}
	return idx
}

func benchGather(b *testing.B, run func(c *Context, idx []int64)) int {
	c := perfCtx(b)
	idx := gatherIndexList()
	run(c, idx) // warm caches, TLBs and the sort scratch
	b.ReportAllocs()
	b.ResetTimer()
	accesses := 0
	for accesses < b.N {
		run(c, idx)
		accesses += len(idx)
	}
	return accesses
}

func BenchmarkGatherRange(b *testing.B) {
	n := benchGather(b, func(c *Context, idx []int64) { c.GatherRange(0, 8, idx) })
	checkFloor(b, n, 2*gatherBaseNs)
}

func BenchmarkGatherRangeRef(b *testing.B) {
	benchGather(b, func(c *Context, idx []int64) { c.GatherRangeScalar(0, 8, idx) })
}

// Random: scalar loads at pseudo-random addresses over an 8 MB vector — the
// TLB-hostile cost of an unbatched indexed access.
func BenchmarkScalarRandom(b *testing.B) {
	const elems = 1 << 20
	c := perfCtx(b)
	seed := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		c.Load(units.Addr((int(seed>>17) & (elems - 1)) * 8))
	}
	checkFloor(b, b.N, 2*randomBaseNs)
	if runtime.NumCPU() >= 4 {
		checkFloor(b, b.N, maxRandomNs)
	}
}

// Single address: repeated loads of one warm address.
func BenchmarkScalarSingleAddr(b *testing.B) {
	c := perfCtx(b)
	c.Load(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(0)
	}
}

func BenchmarkFetchRange(b *testing.B) {
	c := perfCtx(b)
	const blocks = 1 << 9 // one fetch per 4KB block over 2MB
	c.FetchRange(0, blocks, units.PageSize4K)
	b.ResetTimer()
	for i := 0; i < b.N; i += blocks {
		c.FetchRange(0, blocks, units.PageSize4K)
	}
}
