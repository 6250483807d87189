// Package profile provides the event counters and report formatting that
// stand in for the paper's use of OProfile. Because the machine is simulated,
// every event is counted exactly rather than statistically sampled, which is
// strictly stronger observability than the paper had.
package profile

import (
	"fmt"
	"strings"
)

// Counters accumulates the hardware events of one execution context. A
// Counters value is owned by a single simulated hardware context (one
// goroutine) while running, so the fields are plain integers; use Add to
// merge per-context counters into aggregates after a region completes.
type Counters struct {
	// Instruction-side events.
	Fetches    uint64 // instruction fetch accesses (per code cache line)
	ITLBL1Miss uint64 // ITLB misses (first level)
	ITLBWalks  uint64 // instruction page-table walks

	// Data-side TLB events, split by page-size class.
	Loads  uint64
	Stores uint64

	DTLBL1Miss4K uint64 // missed the L1 DTLB 4KB-entry class
	DTLBL1Miss2M uint64 // missed the L1 DTLB 2MB-entry class
	DTLBL2Hit    uint64 // L1 miss satisfied by the L2 DTLB
	DTLBWalks4K  uint64 // full page-table walks for 4KB mappings
	DTLBWalks2M  uint64 // full page-table walks for 2MB mappings

	// Data cache events.
	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64 // memory accesses

	// SMT events (Xeon hyper-threading model).
	SMTSwitches uint64 // load-stall-triggered context switches
	FlushCycles uint64 // cycles lost to pipeline flushes on switches

	// OS events.
	SoftFaults uint64 // serviced page faults (demand paging)

	// Messaging robustness events (fault-injected loss/duplication; the
	// retries change cycle counts, never numerics).
	MsgRetries uint64 // control messages resent after simulated loss
	MsgDups    uint64 // duplicated control messages detected and dropped

	// Time.
	Busy       uint64 // cycles of useful work + stall cycles, this context
	WalkCyc    uint64 // cycles spent in page walks (subset of Busy)
	MemCyc     uint64 // cycles spent waiting on memory (subset of Busy)
	BarrierCyc uint64 // cycles spent in barrier/reduction communication
}

// DTLBL1Misses returns misses in the first-level DTLB across both page-size
// classes.
func (c Counters) DTLBL1Misses() uint64 { return c.DTLBL1Miss4K + c.DTLBL1Miss2M }

// DTLBWalks returns the total number of data page-table walks; this is the
// figure the paper reports as "Data TLB misses" (an L2 DTLB miss forces a
// walk).
func (c Counters) DTLBWalks() uint64 { return c.DTLBWalks4K + c.DTLBWalks2M }

// Accesses returns the total number of data accesses.
func (c Counters) Accesses() uint64 { return c.Loads + c.Stores }

// Add merges other into c.
func (c *Counters) Add(o *Counters) {
	c.Fetches += o.Fetches
	c.ITLBL1Miss += o.ITLBL1Miss
	c.ITLBWalks += o.ITLBWalks
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.DTLBL1Miss4K += o.DTLBL1Miss4K
	c.DTLBL1Miss2M += o.DTLBL1Miss2M
	c.DTLBL2Hit += o.DTLBL2Hit
	c.DTLBWalks4K += o.DTLBWalks4K
	c.DTLBWalks2M += o.DTLBWalks2M
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.SMTSwitches += o.SMTSwitches
	c.FlushCycles += o.FlushCycles
	c.SoftFaults += o.SoftFaults
	c.MsgRetries += o.MsgRetries
	c.MsgDups += o.MsgDups
	c.Busy += o.Busy
	c.WalkCyc += o.WalkCyc
	c.MemCyc += o.MemCyc
	c.BarrierCyc += o.BarrierCyc
}

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }

// Delta returns the difference c − prev, fieldwise (prev must be an earlier
// snapshot of the same counter set, so every field of c is >= prev's).
func (c Counters) Delta(prev Counters) Counters {
	return Counters{
		Fetches:      c.Fetches - prev.Fetches,
		ITLBL1Miss:   c.ITLBL1Miss - prev.ITLBL1Miss,
		ITLBWalks:    c.ITLBWalks - prev.ITLBWalks,
		Loads:        c.Loads - prev.Loads,
		Stores:       c.Stores - prev.Stores,
		DTLBL1Miss4K: c.DTLBL1Miss4K - prev.DTLBL1Miss4K,
		DTLBL1Miss2M: c.DTLBL1Miss2M - prev.DTLBL1Miss2M,
		DTLBL2Hit:    c.DTLBL2Hit - prev.DTLBL2Hit,
		DTLBWalks4K:  c.DTLBWalks4K - prev.DTLBWalks4K,
		DTLBWalks2M:  c.DTLBWalks2M - prev.DTLBWalks2M,
		L1Hits:       c.L1Hits - prev.L1Hits,
		L1Misses:     c.L1Misses - prev.L1Misses,
		L2Hits:       c.L2Hits - prev.L2Hits,
		L2Misses:     c.L2Misses - prev.L2Misses,
		SMTSwitches:  c.SMTSwitches - prev.SMTSwitches,
		FlushCycles:  c.FlushCycles - prev.FlushCycles,
		SoftFaults:   c.SoftFaults - prev.SoftFaults,
		MsgRetries:   c.MsgRetries - prev.MsgRetries,
		MsgDups:      c.MsgDups - prev.MsgDups,
		Busy:         c.Busy - prev.Busy,
		WalkCyc:      c.WalkCyc - prev.WalkCyc,
		MemCyc:       c.MemCyc - prev.MemCyc,
		BarrierCyc:   c.BarrierCyc - prev.BarrierCyc,
	}
}

// OSCounters aggregates the OS-level robustness events of one run — the
// degraded-path activity that sits below the per-context hardware counters.
// All of it shifts performance only; the numerics contract holds regardless.
type OSCounters struct {
	THPDemotions       uint64 // promoted 2 MB mappings split back to 4 KB
	BrokenReservations uint64 // THP reservations lost (pool dry or injected)
	HugePageFallbacks  uint64 // regions that fell back to 4 KB backing
	PTMapRetries       uint64 // transient page-table map failures absorbed
	// DSMRefetches counted the page fetches the removed SCASH software DSM
	// repeated after loss; nothing sets it. It stays only because results
	// carry every field on the wire and in the golden digests, and goes
	// with the next memo.SchemaVersion bump.
	DSMRefetches uint64
}

// Add merges other into c.
func (c *OSCounters) Add(o OSCounters) {
	c.THPDemotions += o.THPDemotions
	c.BrokenReservations += o.BrokenReservations
	c.HugePageFallbacks += o.HugePageFallbacks
	c.PTMapRetries += o.PTMapRetries
	c.DSMRefetches += o.DSMRefetches
}

// Total returns the sum of all degraded-path events.
func (c OSCounters) Total() uint64 {
	return c.THPDemotions + c.BrokenReservations + c.HugePageFallbacks +
		c.PTMapRetries + c.DSMRefetches
}

// String formats the non-zero fields compactly ("demotions=3 retries=9").
func (c OSCounters) String() string {
	var b strings.Builder
	put := func(name string, v uint64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, v)
	}
	put("demotions", c.THPDemotions)
	put("broken-reservations", c.BrokenReservations)
	put("hugepage-fallbacks", c.HugePageFallbacks)
	put("pt-map-retries", c.PTMapRetries)
	put("dsm-refetches", c.DSMRefetches)
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Report is an OProfile-style textual summary of a Counters aggregate.
// seconds is the simulated wall-clock duration used for rate columns.
func (c Counters) Report(name string, seconds float64) string {
	var b strings.Builder
	rate := func(n uint64) float64 {
		if seconds <= 0 {
			return 0
		}
		return float64(n) / seconds
	}
	fmt.Fprintf(&b, "profile: %s (%.3f simulated seconds)\n", name, seconds)
	fmt.Fprintf(&b, "  data accesses      %14d  (%.3g/s)\n", c.Accesses(), rate(c.Accesses()))
	fmt.Fprintf(&b, "  DTLB L1 misses     %14d  (%.3g/s)\n", c.DTLBL1Misses(), rate(c.DTLBL1Misses()))
	fmt.Fprintf(&b, "  DTLB walks         %14d  (%.3g/s)\n", c.DTLBWalks(), rate(c.DTLBWalks()))
	fmt.Fprintf(&b, "  ITLB misses        %14d  (%.3g/s)\n", c.ITLBL1Miss, rate(c.ITLBL1Miss))
	fmt.Fprintf(&b, "  L1D misses         %14d  (%.3g/s)\n", c.L1Misses, rate(c.L1Misses))
	fmt.Fprintf(&b, "  L2 misses (memory) %14d  (%.3g/s)\n", c.L2Misses, rate(c.L2Misses))
	fmt.Fprintf(&b, "  SMT switches       %14d\n", c.SMTSwitches)
	fmt.Fprintf(&b, "  walk cycles        %14d\n", c.WalkCyc)
	fmt.Fprintf(&b, "  memory cycles      %14d\n", c.MemCyc)
	fmt.Fprintf(&b, "  busy cycles        %14d\n", c.Busy)
	return b.String()
}
