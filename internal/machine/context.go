package machine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hugeomp/internal/cache"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/profile"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

const lineShift = 6 // 64-byte cache lines

// FaultHandler services a page fault on an unmapped address raised during
// simulated access — demand paging, as the transparent-huge-page manager
// does. After it returns nil the access is retried.
type FaultHandler func(va units.Addr, write bool) error

// Context is one hardware thread context: the unit a simulated OpenMP thread
// runs on. It owns an ITLB stack, a DTLB stack and an L1/L2 cache pair —
// private, partitioned slices of whatever the hardware shares between
// co-scheduled contexts — and accumulates exact event counts and cycle costs
// for every access.
//
// A Context is driven by exactly one goroutine at a time. It shares nothing
// it simulates with another context except the page table and its
// shootdown mailbox. Caches are indexed by virtual line address (the
// simulated process is the only user of the machine, so virtual≡physical
// indexing is behaviour-preserving and lets the hot path skip PFN
// bookkeeping).
type Context struct {
	ID     int
	Chip   int
	Core   int
	Thread int

	machine *Machine
	pt      *pagetable.Table
	itlb    *tlb.Hierarchy
	dtlb    *tlb.Hierarchy
	l1      *cache.Cache
	l2      *cache.Cache

	costs      *Costs
	hasSibling bool // another context is co-scheduled on this core
	smtFlush   bool // flush-on-switch SMT penalty applies

	// OnFault, if set, services faults on unmapped addresses (demand
	// paging). A write to a read-only page is never serviced: it is fatal.
	OnFault FaultHandler

	// Page-size probe hints (most processes use one size class per segment).
	dataHint  units.PageSize
	fetchHint units.PageSize

	// Fetch micro-TLB: the translation of the last code page touched.
	// Consecutive same-page fetches are ITLB hits by construction, so
	// skipping the probe is behaviour-preserving.
	lastFetchBase units.Addr
	lastFetchMask units.Addr
	fetchCacheOK  bool

	// Stream-prefetcher state: the last line that missed to memory, valid
	// only while the miss run is unbroken (an intervening L2 hit ends it).
	lastMissLine  uint64
	lastMissValid bool

	// Translation cache: a direct-mapped host-side cache of page-walk
	// results, generation-stamped via xlatGen so repeat walks to an
	// unchanged table never take the table's RWMutex. Purely a simulator
	// fast path — simulated costs are charged identically either way. Only
	// the owning goroutine touches it; see walk for the validity protocol.
	xlat []xlatSlot
	// xlatGen is the pagetable generation xlat was filled under; a mismatch
	// with pt.Gen() lazily wipes the cache.
	xlatGen uint64

	// Scratch buffers for GatherRange/ScatterRange index sorting, reused
	// across calls so steady-state gathers are allocation-free.
	idxSort []int64
	idxCnt  []int32

	// Shootdown mailbox: cross-context TLB invalidations are delivered like
	// IPIs — enqueued by the sender, drained by the owning goroutine at its
	// next access — so no other goroutine ever mutates this context's TLBs.
	shootFlag atomic.Bool
	shootMu   sync.Mutex
	pending   []shootReq

	// Ctr accumulates this context's events. Busy is its cycle clock.
	Ctr profile.Counters
}

type shootReq struct {
	va   units.Addr
	size units.PageSize
	all  bool // full flush
}

// xlatSlots sizes the per-context translation cache (direct-mapped, keyed by
// 4 KB virtual page number). Must be a power of two. 4096 slots cover 16 MB
// of 4 KB pages — the working sets of the NPB classes the harness sweeps —
// in 64 KB per context; conflicts merely fall back to a locked walk.
const xlatSlots = 4096

// xlatSlot caches the page-walk result of one 4 KB-granule VPN in 16 bytes:
// key is vpn<<1|1, so a zeroed slot is empty, and wr the result packed by
// pagetable.Pack.
type xlatSlot struct {
	key uint64
	wr  uint64
}

// HasSibling reports whether an SMT sibling is co-scheduled on this core.
func (c *Context) HasSibling() bool { return c.hasSibling }

// Machine returns the owning machine.
func (c *Context) Machine() *Machine { return c.machine }

// DTLB exposes the data-TLB stack (tests and the cpuid reproduction).
func (c *Context) DTLB() *tlb.Hierarchy { return c.dtlb }

// ITLB exposes the instruction-TLB stack.
func (c *Context) ITLB() *tlb.Hierarchy { return c.itlb }

// SetPageHint primes the page-size probe order (the core layer sets it from
// the allocation policy so the common class is probed first).
func (c *Context) SetPageHint(s units.PageSize) {
	c.dataHint = s
	c.fetchHint = s
}

// translateData resolves va through the DTLB stack, walking the page table
// on a full miss. It returns the mapped page size and the cycle cost beyond
// a first-level hit.
func (c *Context) translateData(va units.Addr, write bool) (units.PageSize, uint64) {
	order := [2]units.PageSize{c.dataHint, c.dataHint ^ 1}
	for _, s := range order {
		vpn := s.VPN(va)
		switch c.dtlb.Access(vpn, s) {
		case tlb.HitL1:
			c.dataHint = s
			return s, 0
		case tlb.HitL2:
			c.dataHint = s
			c.countL1Miss(s)
			c.Ctr.DTLBL2Hit++
			return s, c.costs.TLBL2Cyc
		}
	}
	// Full miss: hardware page walk (servicing demand faults first).
	wr := c.walk(va, write)
	size := wr.Entry.Size
	c.countL1Miss(size)
	if size == units.Size2M {
		c.Ctr.DTLBWalks2M++
	} else {
		c.Ctr.DTLBWalks4K++
	}
	cyc := uint64(wr.MemRefs) * c.costs.WalkRefCyc
	c.Ctr.WalkCyc += cyc
	c.dtlb.Fill(size.VPN(va), size)
	c.dataHint = size
	return size, cyc
}

func (c *Context) countL1Miss(s units.PageSize) {
	if s == units.Size2M {
		c.Ctr.DTLBL1Miss2M++
	} else {
		c.Ctr.DTLBL1Miss4K++
	}
}

// walk resolves va through the page table, retrying after serviced faults.
// Repeat walks are served from the per-context translation cache: the cache
// as a whole is stamped with the table generation its walk results were
// filled under (xlatGen), so while that stamp still equals Gen() the table
// has not mutated and every cached result is exactly what a fresh walk would
// return — without taking the table's RWMutex. A stale stamp lazily wipes
// the cache; a write to a read-only page (which is fatal) just falls through
// to the locked walk. Invalidation is purely monotonic: Map and Unmap bump
// the generation, and the TLB-level consequences are already handled by the
// shootdown mailbox. A walk that races a table mutation installs a result
// the sweep will discard at the next walk (xlatGen is only synced at entry,
// so it can never run ahead and validate a stale slot).
func (c *Context) walk(va units.Addr, write bool) pagetable.WalkResult {
	vpn := uint64(va) >> units.PageShift4K
	if gen := c.pt.Gen(); gen != c.xlatGen {
		clear(c.xlat)
		c.xlatGen = gen
	}
	slot := &c.xlat[vpn&(xlatSlots-1)]
	if slot.key == vpn<<1|1 {
		wr := pagetable.UnpackWalk(slot.wr)
		if !write || wr.Entry.Prot&pagetable.ProtWrite != 0 {
			return wr
		}
	}
	for {
		wr, err := c.pt.Access(va, write)
		if err == nil {
			if packed, ok := wr.Pack(); ok {
				*slot = xlatSlot{key: vpn<<1 | 1, wr: packed}
			}
			return wr
		}
		if errors.Is(err, pagetable.ErrNotMapped) && c.OnFault != nil {
			// Soft fault: demand paging (transparent huge pages). Charge
			// the kernel entry/exit and fill cost to this context.
			if ferr := c.OnFault(va, write); ferr != nil {
				panic(fmt.Sprintf("machine: context %d fault handler failed at %#x: %v", c.ID, va, ferr))
			}
			c.Ctr.SoftFaults++
			c.Ctr.Busy += c.costs.SoftFaultCyc
			continue
		}
		panic(fmt.Sprintf("machine: context %d unhandled fault at %#x: %v", c.ID, va, err))
	}
}

// cacheAccess runs the data-cache hierarchy for one line and returns its
// cycle cost.
//
//simlint:hotpath
func (c *Context) cacheAccess(line uint64, write bool) uint64 {
	if c.l1.Access(line, write).Hit {
		c.Ctr.L1Hits++
		return c.costs.L1HitCyc
	}
	c.Ctr.L1Misses++
	if c.l2.Access(line, write).Hit {
		c.Ctr.L2Hits++
		// The L2 hit interrupts the miss stream: the prefetcher's run
		// continuation must not survive it, or the next unrelated miss
		// would be mislabelled as sequential.
		c.lastMissValid = false
		return c.costs.L2HitCyc
	}
	c.Ctr.L2Misses++
	cyc := c.costs.MemCyc
	// Stream prefetcher: a miss continuing a sequential run is mostly
	// hidden, except at 4 KB boundaries where the 2007-era prefetchers
	// stop (64 lines of 64 B per 4 KB).
	if c.lastMissValid && line == c.lastMissLine+1 && line%64 != 0 {
		cyc = c.costs.StreamCyc
	}
	c.lastMissLine = line
	c.lastMissValid = true
	c.Ctr.MemCyc += cyc
	if c.smtFlush {
		// The Xeon SMT implementation evicts the thread context on a memory
		// load stall, flushing the pipeline (paper §3.2, §4.4).
		c.Ctr.SMTSwitches++
		c.Ctr.FlushCycles += c.costs.FlushCyc
		cyc += c.costs.FlushCyc
	}
	return cyc
}

// dataAccess commits one scalar data access through the full
// translate→TLB→L1→L2 cascade.
//
//simlint:hotpath
func (c *Context) dataAccess(va units.Addr, write bool) {
	if write {
		c.Ctr.Stores++
	} else {
		c.Ctr.Loads++
	}
	if c.shootFlag.Load() {
		c.drainShootdowns()
	}
	_, cyc := c.translateData(va, write)
	cyc += c.costs.ExecCyc + c.cacheAccess(uint64(va)>>lineShift, write)
	c.Ctr.Busy += cyc
}

// Load simulates an 8-byte load at va.
func (c *Context) Load(va units.Addr) { c.dataAccess(va, false) }

// Store simulates an 8-byte store at va.
func (c *Context) Store(va units.Addr) { c.dataAccess(va, true) }

// AccessRange simulates n accesses at base, base+stride, base+2·stride, …
// with exact TLB/cache behaviour, in O(pages·lines) rather than O(elements)
// (see rangeBulk). Strides may be negative or zero.
func (c *Context) AccessRange(base units.Addr, n int, stride int64, write bool) {
	if n <= 0 {
		return
	}
	if write {
		c.Ctr.Stores += uint64(n)
	} else {
		c.Ctr.Loads += uint64(n)
	}
	// The engine may charge soft faults to Busy itself, so Busy is read
	// only after it returns.
	busy := c.rangeBulk(base, n, stride, write)
	c.Ctr.Busy += busy
}

// drainWindow is the element interval at which the range and gather engines
// poll shootFlag: at elements 0, drainWindow, 2·drainWindow, … of each call.
// The mailbox contract is "applied at a subsequent access of the owning
// context", which any polling interval satisfies. A shootdown pending at
// entry drains at element 0, exactly where the per-element reference drains
// it; one a fault handler queues on its own context mid-call drains at the
// next window boundary, not at the next page; a quiescent stream drains
// nowhere. The tests in scalar_ref_test.go pin each case. Must be a power
// of two.
const drainWindow = 64

// rangeBulk is the range engine. The range is decomposed into segments —
// a segment ends at a page edge or a drain-window boundary — with one
// translation per page (after a page's first element its translation is an
// L1 DTLB hit by construction) and each segment into cache-line runs: after
// a run's head access the line is resident, so the remaining same-line
// accesses are L1 hits by construction and are accounted in bulk. Skipping
// their individual probes also skips LRU stamp refreshes, but a skip only
// happens inside a run of accesses to one line, so the relative recency of
// distinct lines — all that LRU replacement observes — is unchanged. A drain re-translates and
// re-probes the element it lands on. Negative strides walk the same
// decomposition in descending address order: a segment ends when the
// address drops below the page base, a run when it drops below the line
// base. A zero stride is one run per segment. Fault-handler contexts
// (transparent huge pages) take the same path: a fault is served inside the
// segment's translation, and any shootdown it queues drains at the next
// window boundary.
func (c *Context) rangeBulk(base units.Addr, n int, stride int64, write bool) uint64 {
	var busy uint64
	hitCyc := c.costs.ExecCyc + c.costs.L1HitCyc
	var pageBase, pageMask units.Addr
	var pageOK bool
	pageEnd := 0 // index one past the last element on the translated page
	abs := stride
	if abs < 0 {
		abs = -abs
	}
	// When a positive stride divides the line size, every line-aligned run
	// holds exactly lineSize/stride elements, so the run-length division is
	// needed only for partial (unaligned) runs.
	kFull := 0
	if stride > 0 && units.CacheLineSize%stride == 0 {
		kFull = int(units.CacheLineSize / stride)
	}
	for i := 0; i < n; {
		if i&(drainWindow-1) == 0 && c.shootFlag.Load() {
			c.drainShootdowns()
			pageOK = false
		}
		va := base + units.Addr(int64(i)*stride)
		if !pageOK || va&^pageMask != pageBase {
			size, tcyc := c.translateData(va, write)
			busy += tcyc
			pageMask = size.Mask()
			pageBase, pageOK = va&^pageMask, true
			// Elements landing on this page: ascending,
			// ceil((pageEnd−va)/stride); descending, those down to the page
			// base inclusive; zero stride, all of them.
			switch {
			case stride > 0:
				end := int64(pageBase) + int64(pageMask) + 1
				pageEnd = i + int((end-int64(va)+stride-1)/stride)
			case stride < 0:
				pageEnd = i + int((int64(va)-int64(pageBase))/abs) + 1
			default:
				pageEnd = n
			}
		}
		segN := min(pageEnd, n, (i|(drainWindow-1))+1) - i
		if abs >= units.CacheLineSize {
			// At most one element per line: the translation is amortised
			// but every element still probes the cache hierarchy.
			for j := 0; j < segN; j++ {
				line := uint64(va+units.Addr(int64(j)*stride)) >> lineShift
				busy += c.costs.ExecCyc + c.cacheAccess(line, write)
			}
		} else {
			for j := 0; j < segN; {
				eva := va + units.Addr(int64(j)*stride)
				line := uint64(eva) >> lineShift
				var k int
				switch {
				case stride > 0:
					k = kFull
					if k == 0 || int64(eva)&(units.CacheLineSize-1) != 0 {
						lineEnd := int64(line+1) << lineShift
						k = int((lineEnd - int64(eva) + stride - 1) / stride)
					}
				case stride < 0:
					lineBase := int64(line) << lineShift
					k = int((int64(eva)-lineBase)/abs) + 1
				default:
					k = segN
				}
				k = min(k, segN-j)
				busy += c.costs.ExecCyc + c.cacheAccess(line, write)
				if k > 1 {
					c.Ctr.L1Hits += uint64(k - 1)
					busy += uint64(k-1) * hitCyc
				}
				j += k
			}
		}
		i += segN
	}
	return busy
}

// GatherRange simulates len(idx) loads at base + idx[j]·elemSize — the
// indexed access pattern of sparse kernels (CG's a[colidx[k]] gather).
// elemSize must be positive. The accesses are issued in ascending index
// order: the list is copied into a per-context scratch buffer and sorted
// (the caller's slice is never mutated), then decomposed into page segments
// and cache-line runs exactly like rangeBulk — one translation per touched
// page, one cache probe per line run, with the remaining same-line accesses
// (duplicates included; every index counts) bulk-accounted as the L1 hits
// they are by construction.
func (c *Context) GatherRange(base units.Addr, elemSize int64, idx []int64) {
	c.indexedRange(base, elemSize, idx, false)
}

// ScatterRange simulates len(idx) stores at base + idx[j]·elemSize — the
// write-side dual of GatherRange (e.g. x[perm[i]] = …). Same precondition,
// issue order and decomposition as GatherRange.
func (c *Context) ScatterRange(base units.Addr, elemSize int64, idx []int64) {
	c.indexedRange(base, elemSize, idx, true)
}

func (c *Context) indexedRange(base units.Addr, elemSize int64, idx []int64, write bool) {
	n := len(idx)
	if n == 0 {
		return
	}
	if write {
		c.Ctr.Stores += uint64(n)
	} else {
		c.Ctr.Loads += uint64(n)
	}
	busy := c.gatherBulk(base, elemSize, c.sortedIndices(idx), write) // see AccessRange
	c.Ctr.Busy += busy
}

// gatherBulk is the indexed engine over an already-sorted index list.
// Ascending order makes the rangeBulk argument carry over unchanged: all
// elements on one page are consecutive, so one translation per page matches
// the per-element behaviour; all elements on one line are consecutive, so
// after the run head's probe the rest are L1 hits by construction (skipped
// LRU refreshes stay within a single line's run, so the relative recency of
// distinct lines is unchanged). Drain polls, fault handling and segment
// ends at drain-window boundaries are those of rangeBulk. elemSize must be
// positive.
func (c *Context) gatherBulk(base units.Addr, elemSize int64, sorted []int64, write bool) uint64 {
	var busy uint64
	hitCyc := c.costs.ExecCyc + c.costs.L1HitCyc
	var pageBase, pageMask units.Addr
	var pageOK bool
	n := len(sorted)
	for i := 0; i < n; {
		if i&(drainWindow-1) == 0 && c.shootFlag.Load() {
			c.drainShootdowns()
			pageOK = false
		}
		va := base + units.Addr(sorted[i]*elemSize)
		if !pageOK || va&^pageMask != pageBase {
			size, tcyc := c.translateData(va, write)
			busy += tcyc
			pageMask = size.Mask()
			pageBase, pageOK = va&^pageMask, true
		}
		pageLast := pageBase + pageMask
		segEnd := min(n, (i|(drainWindow-1))+1)
		for i < segEnd {
			eva := base + units.Addr(sorted[i]*elemSize)
			if eva > pageLast {
				break
			}
			line := uint64(eva) >> lineShift
			k := 1
			for i+k < segEnd && uint64(base+units.Addr(sorted[i+k]*elemSize))>>lineShift == line {
				k++
			}
			busy += c.costs.ExecCyc + c.cacheAccess(line, write)
			if k > 1 {
				c.Ctr.L1Hits += uint64(k - 1)
				busy += uint64(k-1) * hitCyc
			}
			i += k
		}
	}
	return busy
}

// sortedIndices returns idx sorted ascending in a reusable per-context
// scratch buffer, leaving the caller's slice untouched. Long lists over a
// dense value range take countingSort; everything else slices.Sort.
func (c *Context) sortedIndices(idx []int64) []int64 {
	n := len(idx)
	if cap(c.idxSort) < n {
		c.idxSort = make([]int64, n)
	}
	s := c.idxSort[:n]
	copy(s, idx)
	if n <= 48 || !c.countingSort(s) {
		slices.Sort(s)
	}
	return s
}

// countingSort sorts s in place if its value range is dense — within twice
// its length, the norm for gather lists, which are array subscripts — and
// reports whether it did. Values are their own keys, so the output is
// regenerated from the histogram with no data movement at all.
func (c *Context) countingSort(s []int64) bool {
	mn, mx := s[0], s[0]
	for _, v := range s[1:] {
		mn = min(mn, v)
		mx = max(mx, v)
	}
	rng := uint64(mx - mn)
	if rng > uint64(2*len(s)) || rng >= 1<<22 { // bucket scratch capped at 16 MB
		return false
	}
	buckets := int(rng) + 1
	if cap(c.idxCnt) < buckets {
		c.idxCnt = make([]int32, buckets)
	}
	cnt := c.idxCnt[:buckets]
	clear(cnt)
	for _, v := range s {
		cnt[v-mn]++
	}
	pos := 0
	for b, k := range cnt {
		for ; k > 0; k-- {
			s[pos] = mn + int64(b)
			pos++
		}
	}
	return true
}

// translateFetch resolves va through the ITLB stack, refreshing the fetch
// micro-TLB, and returns the cycle cost beyond a first-level hit.
func (c *Context) translateFetch(va units.Addr) uint64 {
	var cyc uint64
	order := [2]units.PageSize{c.fetchHint, c.fetchHint ^ 1}
	resolved := false
	var size units.PageSize
	for _, s := range order {
		vpn := s.VPN(va)
		if o := c.itlb.Access(vpn, s); o != tlb.Miss {
			if o == tlb.HitL2 {
				cyc += c.costs.TLBL2Cyc
			}
			size, resolved = s, true
			break
		}
	}
	if !resolved {
		wr := c.walk(va, false)
		size = wr.Entry.Size
		c.Ctr.ITLBL1Miss++
		c.Ctr.ITLBWalks++
		w := uint64(wr.MemRefs) * c.costs.WalkRefCyc
		c.Ctr.WalkCyc += w
		cyc += w
		c.itlb.Fill(size.VPN(va), size)
	}
	c.fetchHint = size
	c.lastFetchMask = size.Mask()
	c.lastFetchBase = va &^ c.lastFetchMask
	c.fetchCacheOK = true
	return cyc
}

// FetchRange simulates n instruction-fetch blocks at base, base+stride, …
// (a parallel region's entry touching its code pages), amortising the ITLB
// probe over each page the way rangeBulk does for data: a page segment's
// blocks after the first are fetch micro-TLB hits by construction, so they
// are bulk-accounted at FetchCyc each. Counter-equivalent to calling Fetch
// per block (TestFetchRangeEquivalenceProperty). stride must be positive.
func (c *Context) FetchRange(base units.Addr, n int, stride int64) {
	if n <= 0 {
		return
	}
	c.Ctr.Fetches += uint64(n)
	var busy uint64
	for i := 0; i < n; {
		if c.shootFlag.Load() {
			c.drainShootdowns()
		}
		va := base + units.Addr(int64(i)*stride)
		if !c.fetchCacheOK || va&^c.lastFetchMask != c.lastFetchBase {
			busy += c.translateFetch(va)
		}
		pageEnd := int64(c.lastFetchBase) + int64(c.lastFetchMask) + 1
		segN := int((pageEnd - int64(va) + stride - 1) / stride)
		if segN > n-i {
			segN = n - i
		}
		busy += uint64(segN) * c.costs.FetchCyc
		i += segN
	}
	c.Ctr.Busy += busy
}

// Compute charges cyc cycles of pure computation (ALU/FPU work between
// memory operations).
func (c *Context) Compute(cyc uint64) { c.Ctr.Busy += cyc }

// Wait charges cyc cycles of synchronisation/communication wait, attributing
// them to the barrier counter.
func (c *Context) Wait(cyc uint64) {
	c.Ctr.Busy += cyc
	c.Ctr.BarrierCyc += cyc
}

// InvalidatePage requests a TLB shootdown for the page of the given size at
// va (used when THP promotes or demotes a chunk).
// Like a real IPI it is asynchronous: the invalidation is applied by the
// owning context at its next memory access.
func (c *Context) InvalidatePage(va units.Addr, size units.PageSize) {
	c.shootMu.Lock()
	c.pending = append(c.pending, shootReq{va: va, size: size})
	c.shootMu.Unlock()
	c.shootFlag.Store(true)
}

// FlushTLBs requests a full TLB flush, applied at the context's next access.
func (c *Context) FlushTLBs() {
	c.shootMu.Lock()
	c.pending = append(c.pending, shootReq{all: true})
	c.shootMu.Unlock()
	c.shootFlag.Store(true)
}

// PageTable exposes the process page table this context translates through
// (the post-run consistency audits in internal/check walk it).
func (c *Context) PageTable() *pagetable.Table { return c.pt }

// SettleForAudit applies any queued TLB shootdowns, putting the context in
// the state its next access would observe. The mailbox contract is "applied
// at the next access", so undelivered invalidations are legal; a consistency
// audit must deliver them first or it would flag that legal window. Call only
// while the context is quiescent.
func (c *Context) SettleForAudit() {
	if c.shootFlag.Load() {
		c.drainShootdowns()
	}
}

// AuditTranslationCache re-validates every generation-current slot of the
// per-context translation cache against the live page table. The cache's
// validity protocol promises that while xlatGen equals the current table
// generation, every walk-valid slot holds exactly what a fresh walk would
// return; this audit proves it by re-walking. A stale epoch (the whole
// cache is then dead) and empty slots are legal (walk ignores them) and are
// skipped. Call only while the context is quiescent (no
// access in flight).
func (c *Context) AuditTranslationCache() error {
	if c.xlatGen != c.pt.Gen() {
		return nil
	}
	for i := range c.xlat {
		slot := &c.xlat[i]
		if slot.key == 0 {
			continue
		}
		vpn := slot.key >> 1
		cached := pagetable.UnpackWalk(slot.wr)
		va := units.Addr(vpn) << units.PageShift4K
		wr, err := c.pt.Translate(va)
		if err != nil {
			return fmt.Errorf("machine: context %d xlat slot %d: cached vpn %#x (gen %d) no longer translates: %w",
				c.ID, i, vpn, c.xlatGen, err)
		}
		if wr != cached {
			return fmt.Errorf("machine: context %d xlat slot %d: cached walk for vpn %#x is %+v but the table says %+v",
				c.ID, i, vpn, cached, wr)
		}
	}
	return nil
}

// ForceTranslationCacheEntry overwrites the translation-cache slot for vpn
// with the given walk result, stamped current. It exists so internal/check's
// tests can corrupt the cache and prove AuditTranslationCache is not
// vacuously green; simulation code must never call it. Results outside the
// packed ranges (see pagetable.Pack) cannot be planted.
func (c *Context) ForceTranslationCacheEntry(vpn uint64, wr pagetable.WalkResult) {
	packed, ok := wr.Pack()
	if !ok {
		panic(fmt.Sprintf("machine: ForceTranslationCacheEntry: unpackable walk result %+v", wr))
	}
	if gen := c.pt.Gen(); gen != c.xlatGen {
		clear(c.xlat)
		c.xlatGen = gen
	}
	c.xlat[vpn&(xlatSlots-1)] = xlatSlot{key: vpn<<1 | 1, wr: packed}
}

// drainShootdowns applies queued invalidations.
func (c *Context) drainShootdowns() {
	c.shootMu.Lock()
	reqs := c.pending
	c.pending = nil
	c.shootFlag.Store(false)
	c.shootMu.Unlock()
	for _, r := range reqs {
		if r.all {
			c.dtlb.Flush()
			c.itlb.Flush()
		} else {
			c.dtlb.Invalidate(r.size.VPN(r.va), r.size)
			c.itlb.Invalidate(r.size.VPN(r.va), r.size)
		}
	}
	c.fetchCacheOK = false
}
