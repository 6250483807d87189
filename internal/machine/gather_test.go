package machine

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hugeomp/internal/units"
)

// gatherIdxList decodes a quick-generated byte string into an index list
// over the mapped 4 MB region: unsorted, duplicate-heavy, occasionally long
// enough to hit the counting sort.
func gatherIdxList(raw []byte, elemSize int64) []int64 {
	n := len(raw)
	if n == 0 {
		return nil
	}
	limit := 4*units.MB/elemSize - 1
	idx := make([]int64, n)
	seed := uint64(0x9e3779b97f4a7c15)
	for i, b := range raw {
		seed = seed*6364136223846793005 + uint64(b)
		idx[i] = int64(seed>>17) % limit
		if b%7 == 0 && i > 0 {
			idx[i] = idx[i-1] // force duplicate runs
		}
	}
	return idx
}

// TestGatherRangeEquivalenceProperty: for arbitrary unsorted, duplicate-laden
// index lists on every configuration, the bulk GatherRange/ScatterRange path,
// the GatherRangeScalar reference, and an elementwise Load/Store sweep in the
// documented (ascending) order must produce byte-identical counters — and
// the caller's index slice must come back untouched.
func TestGatherRangeEquivalenceProperty(t *testing.T) {
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			f := func(raw []byte, wide bool, write bool) bool {
				elemSize := int64(8)
				if wide {
					elemSize = 256 // several indices per line vs per-index lines
				}
				idx := gatherIdxList(raw, elemSize)
				if len(idx) == 0 {
					return true
				}
				orig := append([]int64(nil), idx...)
				a, b, s := cfg.mk(t), cfg.mk(t), cfg.mk(t)
				if write {
					a.ScatterRange(0, elemSize, idx)
					s.ScatterRangeScalar(0, elemSize, idx)
				} else {
					a.GatherRange(0, elemSize, idx)
					s.GatherRangeScalar(0, elemSize, idx)
				}
				asc := append([]int64(nil), idx...)
				sort.Slice(asc, func(i, j int) bool { return asc[i] < asc[j] })
				for _, ix := range asc {
					if write {
						b.Store(units.Addr(ix * elemSize))
					} else {
						b.Load(units.Addr(ix * elemSize))
					}
				}
				for i := range idx {
					if idx[i] != orig[i] {
						t.Log("caller's index slice was mutated")
						return false
					}
				}
				if a.Ctr != b.Ctr {
					t.Logf("bulk != elementwise (write=%v, elem=%d):\nbulk: %+v\nelem: %+v", write, elemSize, a.Ctr, b.Ctr)
					return false
				}
				if a.Ctr != s.Ctr {
					t.Logf("bulk != scalar reference (write=%v, elem=%d):\nbulk:   %+v\nscalar: %+v", write, elemSize, a.Ctr, s.Ctr)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGatherRangeLongListEquivalence runs a long dense list (counting sort)
// and a long sparse one (slices.Sort) on every configuration, so both sort
// paths are covered by an exact-counter check, not just the fuzzer — and
// checks each sorted order against slices.Sort, since the reference engine
// shares sortedIndices.
func TestGatherRangeLongListEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			const n = 50000
			idx := make([]int64, n)
			seed := uint64(7)
			for i := range idx {
				seed = seed*6364136223846793005 + 1442695040888963407
				idx[i] = int64(seed>>17) % (4 * units.MB / 8)
			}
			a, s := cfg.mk(t), cfg.mk(t)
			checkSorted(t, a, idx)
			a.GatherRange(0, 8, idx)
			s.GatherRangeScalar(0, 8, idx)
			if a.Ctr != s.Ctr {
				t.Errorf("long-list counters diverge:\nbulk:   %+v\nscalar: %+v", a.Ctr, s.Ctr)
			}
			// A sparse list (wide value range, short length) must take the
			// slices.Sort branch and still agree.
			sparse := make([]int64, 4096)
			for i := range sparse {
				seed = seed*6364136223846793005 + 1442695040888963407
				sparse[i] = int64(seed>>17) % (4 * units.MB / 8)
			}
			a2, s2 := cfg.mk(t), cfg.mk(t)
			checkSorted(t, a2, sparse)
			a2.ScatterRange(0, 8, sparse)
			s2.ScatterRangeScalar(0, 8, sparse)
			if a2.Ctr != s2.Ctr {
				t.Errorf("sparse-list counters diverge:\nbulk:   %+v\nscalar: %+v", a2.Ctr, s2.Ctr)
			}
		})
	}
}

// checkSorted fails t unless c.sortedIndices(idx) is idx in slices.Sort
// order.
func checkSorted(t *testing.T, c *Context, idx []int64) {
	t.Helper()
	want := slices.Clone(idx)
	slices.Sort(want)
	if got := c.sortedIndices(idx); !slices.Equal(got, want) {
		t.Errorf("sortedIndices disagrees with slices.Sort on a %d-index list", len(idx))
	}
}

// TestShootdownDuringGather mirrors TestShootdownDuringBulkRange for the
// indexed path: invalidations delivered from another goroutine before the
// gather starts must be drained at the first element's poll, and the counters
// must match the scalar path given the same delivery point.
func TestShootdownDuringGather(t *testing.T) {
	cfg := equivConfigs()[0]
	const count = 6000
	// Confine the working set to 16 pages so it is DTLB-resident: the clean
	// second pass then walks nothing, and the shot-down pass must re-walk.
	idx := make([]int64, count)
	seed := uint64(3)
	for i := range idx {
		seed = seed*6364136223846793005 + 1442695040888963407
		idx[i] = int64(seed>>17) % (16 * units.PageSize4K / 8)
	}
	run := func(bulk bool) *Context {
		c := cfg.mk(t)
		c.GatherRange(0, 8, idx) // prime the TLBs
		done := make(chan struct{})
		go func() {
			defer close(done)
			shootChunk(c, 0)
		}()
		<-done
		if bulk {
			c.GatherRange(0, 8, idx)
		} else {
			c.GatherRangeScalar(0, 8, idx)
		}
		return c
	}
	clean := cfg.mk(t)
	clean.GatherRange(0, 8, idx)
	clean.GatherRange(0, 8, idx)

	b, s := run(true), run(false)
	if b.shootFlag.Load() {
		t.Error("bulk gather finished with shootdowns still pending")
	}
	if b.Ctr != s.Ctr {
		t.Errorf("counters diverge after mid-gather shootdown:\nbulk:   %+v\nscalar: %+v", b.Ctr, s.Ctr)
	}
	if b.Ctr.DTLBWalks() <= clean.Ctr.DTLBWalks() {
		t.Errorf("shootdowns caused no extra walks: got %d, clean run %d",
			b.Ctr.DTLBWalks(), clean.Ctr.DTLBWalks())
	}
}

// TestShootdownConcurrentWithGather is the -race stress variant for the
// indexed path: invalidations hammer the mailbox while gathers are in
// flight. Only invariants are asserted: exact access count and a drained
// mailbox.
func TestShootdownConcurrentWithGather(t *testing.T) {
	cfg := equivConfigs()[0]
	c := cfg.mk(t)
	const count = 100000
	const shots = 2000
	idx := make([]int64, count)
	seed := uint64(11)
	for i := range idx {
		seed = seed*6364136223846793005 + 1442695040888963407
		idx[i] = int64(seed>>17) % (4 * units.MB / 8)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < shots; i++ {
			c.InvalidatePage(units.Addr(int64(i%16)*units.PageSize4K), units.Size4K)
			runtime.Gosched()
		}
	}()
	c.GatherRange(0, 8, idx)
	c.ScatterRange(0, 8, idx)
	<-done
	if c.Ctr.Loads != count || c.Ctr.Stores != count {
		t.Errorf("Loads=%d Stores=%d, want %d each", c.Ctr.Loads, c.Ctr.Stores, count)
	}
	c.Load(0)
	if c.shootFlag.Load() {
		t.Error("mailbox still flagged after a post-gather access")
	}
}

// FuzzGatherRange drives the bulk indexed path and the scalar reference with
// fuzzer-chosen index lists and element sizes, checking exact counter
// equality plus a mid-stream shootdown round.
func FuzzGatherRange(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), false)
	f.Add([]byte{255, 0, 255, 0, 128}, uint8(0), true)
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(7), false)
	f.Fuzz(func(t *testing.T, raw []byte, sizeSel uint8, write bool) {
		elemSize := int64(1) << (sizeSel % 10) // 1 B .. 512 B
		idx := gatherIdxList(raw, elemSize)
		if len(idx) == 0 {
			return
		}
		cfg := equivConfigs()[int(sizeSel)%len(equivConfigs())]
		a, s := cfg.mk(t), cfg.mk(t)
		do := func(c *Context, scalar bool) {
			switch {
			case scalar && write:
				c.ScatterRangeScalar(0, elemSize, idx)
			case scalar:
				c.GatherRangeScalar(0, elemSize, idx)
			case write:
				c.ScatterRange(0, elemSize, idx)
			default:
				c.GatherRange(0, elemSize, idx)
			}
		}
		do(a, false)
		do(s, true)
		if a.Ctr != s.Ctr {
			t.Fatalf("counters diverge (elem=%d write=%v):\nbulk:   %+v\nscalar: %+v", elemSize, write, a.Ctr, s.Ctr)
		}
		// Queue a shootdown between rounds: both paths must drain it at the
		// same point (the head of the next call) and stay in lockstep.
		a.InvalidatePage(0, units.Size4K)
		s.InvalidatePage(0, units.Size4K)
		do(a, false)
		do(s, true)
		if a.Ctr != s.Ctr {
			t.Fatalf("counters diverge after shootdown (elem=%d write=%v):\nbulk:   %+v\nscalar: %+v", elemSize, write, a.Ctr, s.Ctr)
		}
	})
}
