package machine

import "hugeomp/internal/units"

// The pristine per-element reference engines. Every element runs the full
// translate→TLB→L1→L2 cascade with no page or line runs and a per-element
// drain poll; the committed engines (rangeBulk, gatherBulk) are property-
// and fuzz-tested to produce byte-identical counters.

// AccessRangeScalar is the O(elements) reference implementation of
// AccessRange: every element is translated and cache-probed individually
// through the pristine cascade. The committed paths are property-tested to
// produce byte-identical counters (TestAccessRangeEquivalenceProperty,
// FuzzScalarFastPath).
func (c *Context) AccessRangeScalar(base units.Addr, n int, stride int64, write bool) {
	if n <= 0 {
		return
	}
	if write {
		c.Ctr.Stores += uint64(n)
	} else {
		c.Ctr.Loads += uint64(n)
	}
	busy := c.rangeScalarRef(base, n, stride, write)
	c.Ctr.Busy += busy
}

// AccessScalarRef is the pristine single-access reference: one element of
// rangeScalarRef. It is what Load/Store commit to being equivalent with —
// the fuzz harness replays committed op streams through it and compares
// counters byte-for-byte.
func (c *Context) AccessScalarRef(va units.Addr, write bool) {
	if write {
		c.Ctr.Stores++
	} else {
		c.Ctr.Loads++
	}
	busy := c.rangeScalarRef(va, 1, 0, write)
	c.Ctr.Busy += busy
}

// rangeScalarRef is the pristine per-element reference engine: every element
// runs the full translate→TLB→L1→L2 cascade with a per-element drain poll.
func (c *Context) rangeScalarRef(base units.Addr, n int, stride int64, write bool) uint64 {
	var busy uint64
	for i := 0; i < n; i++ {
		va := base + units.Addr(int64(i)*stride)
		cyc := c.costs.ExecCyc
		if c.shootFlag.Load() {
			c.drainShootdowns()
		}
		_, tcyc := c.translateData(va, write)
		cyc += tcyc
		cyc += c.cacheAccess(uint64(va) >> lineShift)
		busy += cyc
	}
	return busy
}

// GatherRangeScalar is the O(elements) reference implementation of
// GatherRange: the identical sorted issue order, but every element
// translated and cache-probed individually.
func (c *Context) GatherRangeScalar(base units.Addr, elemSize int64, idx []int64) {
	c.indexedRangeScalar(base, elemSize, idx, false)
}

// ScatterRangeScalar is the scalar reference for ScatterRange.
func (c *Context) ScatterRangeScalar(base units.Addr, elemSize int64, idx []int64) {
	c.indexedRangeScalar(base, elemSize, idx, true)
}

func (c *Context) indexedRangeScalar(base units.Addr, elemSize int64, idx []int64, write bool) {
	n := len(idx)
	if n == 0 {
		return
	}
	if write {
		c.Ctr.Stores += uint64(n)
	} else {
		c.Ctr.Loads += uint64(n)
	}
	sorted := c.sortedIndices(idx)
	busy := c.gatherScalarRef(base, elemSize, sorted, write)
	c.Ctr.Busy += busy
}

// gatherScalarRef is the pristine per-element reference for the gather
// paths: the full cascade per element, like rangeScalarRef.
func (c *Context) gatherScalarRef(base units.Addr, elemSize int64, sorted []int64, write bool) uint64 {
	var busy uint64
	for _, ix := range sorted {
		va := base + units.Addr(ix*elemSize)
		cyc := c.costs.ExecCyc
		if c.shootFlag.Load() {
			c.drainShootdowns()
		}
		_, tcyc := c.translateData(va, write)
		cyc += tcyc
		cyc += c.cacheAccess(uint64(va) >> lineShift)
		busy += cyc
	}
	return busy
}

// Fetch simulates one instruction-fetch block at code address va through the
// ITLB stack: the per-block reference FetchRange is property-tested against.
func (c *Context) Fetch(va units.Addr) {
	c.Ctr.Fetches++
	cyc := c.costs.FetchCyc
	if c.shootFlag.Load() {
		c.drainShootdowns()
	}
	if !c.fetchCacheOK || va&^c.lastFetchMask != c.lastFetchBase {
		cyc += c.translateFetch(va)
	}
	c.Ctr.Busy += cyc
}
