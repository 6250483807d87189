// Package omp is the OpenMP runtime of the reproduction: a fork-join
// execution model (the paper's Figure 1) with worksharing loops
// (static/dynamic/guided schedules), barriers and reductions, executing on
// the simulated hardware contexts of a machine.Machine.
//
// Timing model: each context accumulates busy cycles for its own work; a
// parallel region's wall-clock cost is the maximum busy delta over physical
// cores (SMT siblings co-scheduled on one core serialise, so a core's delta
// is the SUM of its contexts' deltas — this is what makes the Xeon's
// 8-thread runs scale poorly, as in the paper's Figure 4), plus fork
// overhead. A barrier or reduction moves no bytes: it is a closed-form
// charge of MsgCyc per message hop its algorithm would send over the paper's
// mapped-file ring (§3.3). The team's host goroutines meet only at the
// region's join.
package omp

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"hugeomp/internal/machine"
	"hugeomp/internal/profile"
	"hugeomp/internal/units"
)

// ErrAborted is wrapped by every error a cancelled run reports: a kernel
// whose bound context expires returns an error satisfying both
// errors.Is(err, ErrAborted) and errors.Is(err, ctx.Err()).
var ErrAborted = errors.New("omp: run aborted")

// ScheduleKind selects a worksharing schedule.
type ScheduleKind uint8

const (
	Static ScheduleKind = iota
	Dynamic
	Guided
)

// String implements fmt.Stringer.
func (k ScheduleKind) String() string {
	switch k {
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return "static"
	}
}

// For configures a worksharing loop, like the schedule clause of `#pragma
// omp parallel for`.
type For struct {
	Schedule ScheduleKind
	Chunk    int // chunk size; 0 means schedule default
}

// BarrierAlgo selects the barrier implementation.
type BarrierAlgo uint8

const (
	// CentralBarrier: gather at the master, then broadcast (2·(T−1)
	// messages through the master — serialises there).
	CentralBarrier BarrierAlgo = iota
	// TreeBarrier: dissemination barrier, ⌈log2 T⌉ rounds of pairwise
	// messages.
	TreeBarrier
)

// String implements fmt.Stringer.
func (b BarrierAlgo) String() string {
	if b == TreeBarrier {
		return "tree"
	}
	return "central"
}

// CodeRegion describes the code footprint of a parallel region: entering
// the region fetches each (4 KB) code page once per thread, which is how the
// instruction-TLB behaviour of the paper's Figure 3 arises.
type CodeRegion struct {
	Name string
	Base units.Addr
	Size int64
}

func (r *CodeRegion) touch(c *machine.Context) {
	if r == nil {
		return
	}
	// One fetch block per 4 KB code page, issued as a batched range so the
	// machine layer amortises the ITLB probe per page instead of per block.
	blocks := int((r.Size + units.PageSize4K - 1) / units.PageSize4K)
	c.FetchRange(r.Base, blocks, units.PageSize4K)
}

// RT is an OpenMP runtime instance bound to a machine and a thread count.
type RT struct {
	m       *machine.Machine
	ctxs    []*machine.Context
	barrier BarrierAlgo

	wall    uint64 // simulated wall-clock cycles accumulated so far
	regions uint64 // parallel regions executed
	inPar   bool   // guard against nested Parallel (unsupported, like Omni)

	// entry holds each context's counters at region entry, copied by the
	// master before the team starts. At the join each context's region
	// delta is c.Ctr.Delta(entry[i]): nothing writes a context's counters
	// between its goroutine's return and the join.
	entry []profile.Counters
	// coreBusy, coreMem and coreMaxThread are the join's per-core sums,
	// cleared on each region.
	coreBusy, coreMem, coreMaxThread []uint64
	// partials is the reduction scratch: one slot per thread, each written
	// only by its own thread.
	partials []float64

	// Per-code-region profile (the OProfile per-symbol view): aggregated
	// counter deltas and wall cycles for every named CodeRegion.
	regionProf map[string]*RegionProfile

	// runCtx is the cancellation source bound by Bind (nil = the run can
	// never be aborted); abortErr latches the first cancellation observed
	// at a Checkpoint so every later call reports the same error.
	runCtx   context.Context
	abortErr error
}

// RegionProfile aggregates the activity attributed to one named parallel
// region across the run.
type RegionProfile struct {
	Name       string
	Entries    uint64 // times the region executed
	WallCycles uint64 // wall-clock cycles attributed to the region
	Counters   profile.Counters
}

// Option customises the runtime.
type Option func(*RT)

// WithBarrier selects the barrier algorithm.
func WithBarrier(b BarrierAlgo) Option { return func(rt *RT) { rt.barrier = b } }

// New builds a runtime with nthreads threads on m. The machine must already
// have a process page table attached.
func New(m *machine.Machine, nthreads int, opts ...Option) (*RT, error) {
	ctxs, err := m.Configure(nthreads)
	if err != nil {
		return nil, err
	}
	rt := &RT{
		m:          m,
		ctxs:       ctxs,
		barrier:    TreeBarrier,
		regionProf: make(map[string]*RegionProfile),
	}
	rt.entry = make([]profile.Counters, nthreads)
	ncores := m.Model.Cores()
	rt.coreBusy = make([]uint64, ncores)
	rt.coreMem = make([]uint64, ncores)
	rt.coreMaxThread = make([]uint64, ncores)
	rt.partials = make([]float64, nthreads)
	for _, o := range opts {
		o(rt)
	}
	return rt, nil
}

// Threads returns the team size.
func (rt *RT) Threads() int { return len(rt.ctxs) }

// Machine returns the underlying machine.
func (rt *RT) Machine() *machine.Machine { return rt.m }

// Contexts returns the team's hardware contexts.
func (rt *RT) Contexts() []*machine.Context { return rt.ctxs }

// WallCycles returns the simulated wall-clock cycles accumulated by parallel
// regions and their reductions so far.
func (rt *RT) WallCycles() uint64 { return rt.wall }

// Seconds converts the accumulated wall clock to simulated seconds.
func (rt *RT) Seconds() float64 { return rt.m.Seconds(rt.wall) }

// Bind attaches ctx as the runtime's cancellation source. Worksharing loops
// poll it between chunks and stop issuing work once it is done (the region
// still runs its barrier and merges its counter deltas, so the machine stays
// audit-consistent); kernels observe the abort at their next Checkpoint. A
// nil or never-done context leaves the run uncancellable, and the polls are
// pure reads — a run with an idle context is bit-identical to an unbound one.
func (rt *RT) Bind(ctx context.Context) { rt.runCtx = ctx }

// Checkpoint is the cooperative cancellation point kernels call at quiescent
// boundaries (between timestep iterations, after reductions feeding control
// flow): nil while the bound context is live, and a sticky error wrapping
// ErrAborted and the context's error once it is done. After a non-nil
// Checkpoint the runtime must not be used for further regions — the caller
// abandons the run and its fork.
func (rt *RT) Checkpoint() error {
	if rt.abortErr != nil {
		return rt.abortErr
	}
	if rt.runCtx == nil {
		return nil
	}
	if err := rt.runCtx.Err(); err != nil {
		rt.abortErr = fmt.Errorf("%w at region %d: %w", ErrAborted, rt.regions, err)
	}
	return rt.abortErr
}

// interrupted polls the bound context from worksharing loops; safe from team
// goroutines (context.Err is concurrency-safe, and rt.runCtx is written only
// between regions).
func (rt *RT) interrupted() bool {
	return rt.runCtx != nil && rt.runCtx.Err() != nil
}

// Parallel executes body on every thread of the team (the fork-join of
// `#pragma omp parallel`), including the implicit barrier, and advances the
// wall clock by the region's cost.
func (rt *RT) Parallel(code *CodeRegion, body func(tid int, c *machine.Context)) {
	if rt.inPar {
		panic("omp: nested parallel regions are not supported (Omni serialises them)")
	}
	rt.inPar = true
	defer func() { rt.inPar = false }()

	rt.snapshotEntry()
	n := len(rt.ctxs)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(tid int) {
			defer wg.Done()
			c := rt.ctxs[tid]
			code.touch(c)
			body(tid, c)
			rt.chargeBarrier(tid)
		}(i)
	}
	wg.Wait()

	// Wall-clock cost: SMT siblings serialise on their core, so sum busy
	// deltas per core and take the slowest core.
	rt.accountRegion(code)
}

// chargeBarrier charges thread tid its share of one team barrier: MsgCyc
// per message it sends or receives. The central barrier gathers at the
// master and broadcasts back, 2(n−1) hops there and 2 at every other thread;
// the dissemination barrier sends and receives once in each of its ⌈log2 n⌉
// rounds at every thread. The host side of the barrier is the region's join.
func (rt *RT) chargeBarrier(tid int) {
	n := len(rt.ctxs)
	var hops uint64
	switch {
	case n == 1:
		return
	case rt.barrier == TreeBarrier:
		hops = 2 * uint64(bits.Len(uint(n-1)))
	case tid == 0:
		hops = 2 * uint64(n-1)
	default:
		hops = 2
	}
	rt.ctxs[tid].Wait(hops * rt.m.Model.Costs.MsgCyc)
}

// snapshotEntry copies every context's counters into rt.entry; the master
// calls it at region entry, before any thread of the team runs.
func (rt *RT) snapshotEntry() {
	for i, c := range rt.ctxs {
		rt.entry[i] = c.Ctr
	}
}

// chunkFor computes the effective chunk for a schedule.
func (f For) chunk(n, nthreads int) int {
	if f.Chunk > 0 {
		return f.Chunk
	}
	switch f.Schedule {
	case Dynamic:
		return 1
	case Guided:
		return 1 // minimum chunk; guided computes per-grab
	default:
		return (n + nthreads - 1) / nthreads
	}
}

// ParallelFor executes `#pragma omp parallel for` over the iteration space
// [0, n): body(tid, c, lo, hi) processes iterations [lo, hi). The schedule
// determines how iterations map to threads; dynamic/guided grabs charge an
// atomic-operation cost per chunk.
//
// Static schedules run the team as real goroutines. Dynamic and guided
// schedules dispatch chunks in *simulated-time* order — always to the
// context with the least accumulated busy time — executed sequentially; this
// keeps the load balancing deterministic and faithful to what the schedule
// would do on real hardware, instead of depending on Go scheduler timing.
func (rt *RT) ParallelFor(code *CodeRegion, n int, f For, body func(tid int, c *machine.Context, lo, hi int)) {
	nt := len(rt.ctxs)
	switch f.Schedule {
	case Static:
		chunk := f.chunk(n, nt)
		rt.Parallel(code, func(tid int, c *machine.Context) {
			// Chunked round-robin; with the default chunk this is one
			// contiguous block per thread. A cancelled run stops issuing
			// chunks — the checkpoint interval of an abandoned request —
			// and falls through to the implicit barrier, leaving every
			// completed access fully counted.
			for lo := tid * chunk; lo < n; lo += nt * chunk {
				if rt.interrupted() {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(tid, c, lo, hi)
			}
		})
	case Dynamic, Guided:
		rt.virtualTimeFor(code, n, f, body)
	}
}

// virtualTimeFor implements dynamic/guided worksharing by virtual-time
// simulation: the next chunk always goes to the thread whose simulated clock
// is furthest behind, which is exactly what a work queue yields on real
// hardware when threads grab chunks as they finish.
func (rt *RT) virtualTimeFor(code *CodeRegion, n int, f For, body func(tid int, c *machine.Context, lo, hi int)) {
	if rt.inPar {
		panic("omp: nested parallel regions are not supported (Omni serialises them)")
	}
	rt.inPar = true
	defer func() { rt.inPar = false }()

	nt := len(rt.ctxs)
	rt.snapshotEntry()
	for _, c := range rt.ctxs {
		code.touch(c)
	}
	delta := func(i int) uint64 { return rt.ctxs[i].Ctr.Busy - rt.entry[i].Busy }

	minChunk := f.chunk(n, nt)
	remaining := n
	lo := 0
	for remaining > 0 && !rt.interrupted() {
		// Pick the most-idle context.
		tid := 0
		for i := 1; i < nt; i++ {
			if delta(i) < delta(tid) {
				tid = i
			}
		}
		sz := minChunk
		if f.Schedule == Guided {
			if g := remaining / (2 * nt); g > sz {
				sz = g
			}
		}
		if sz > remaining {
			sz = remaining
		}
		c := rt.ctxs[tid]
		c.Compute(rt.m.Model.Costs.AtomicCyc) // chunk grab
		body(tid, c, lo, lo+sz)
		lo += sz
		remaining -= sz
	}
	for i := range rt.ctxs {
		rt.chargeBarrier(i)
	}
	rt.accountRegion(code)
}

// accountRegion charges the wall clock for a completed region and attributes
// each context's region delta to the region's profile entry. It runs after
// the team joins and folds the deltas in ascending tid order — the
// deterministic merge point.
func (rt *RT) accountRegion(code *CodeRegion) {
	// Per-core aggregation: SMT siblings serialise on the execution units.
	// Under flush-on-switch SMT (Xeon) memory stalls serialise too; under
	// interleaved SMT (Niagara) one thread's memory stalls are filled with
	// the other threads' execution, so a core's time is its execution work
	// plus only the unhidden stall tail (floored by the slowest single
	// thread).
	interleave := rt.m.Model.SMT == machine.SMTInterleave
	// Dense per-core slices (CoreOf keys are contiguous): the aggregation
	// and the fold below visit cores in index order, so the merge is
	// deterministic by construction, not by map luck.
	coreBusy, coreMem, coreMaxThread := rt.coreBusy, rt.coreMem, rt.coreMaxThread
	clear(coreBusy)
	clear(coreMem)
	clear(coreMaxThread)
	name := "(anonymous)"
	if code != nil {
		name = code.Name
	}
	prof := rt.regionProf[name]
	if prof == nil {
		prof = &RegionProfile{Name: name}
		rt.regionProf[name] = prof
	}
	for i, c := range rt.ctxs {
		d := c.Ctr.Delta(rt.entry[i])
		core := rt.m.CoreOf(c)
		coreBusy[core] += d.Busy
		coreMem[core] += d.MemCyc
		if d.Busy > coreMaxThread[core] {
			coreMaxThread[core] = d.Busy
		}
		prof.Counters.Add(&d)
	}
	var max uint64
	for core, b := range coreBusy {
		t := b
		if interleave {
			exec := b - coreMem[core]
			t = exec
			if coreMaxThread[core] > t {
				t = coreMaxThread[core]
			}
		}
		if t > max {
			max = t
		}
	}
	regionWall := rt.m.Model.Costs.ForkCyc + max
	rt.wall += regionWall
	rt.regions++
	prof.Entries++
	prof.WallCycles += regionWall
}

// RegionProfiles returns the per-region profile entries sorted by wall
// cycles, most expensive first (the OProfile per-symbol view). Regions with
// equal wall cycles tie-break on name: the slice is collected from a map, so
// without a total order the report would shuffle between identical runs.
func (rt *RT) RegionProfiles() []*RegionProfile {
	out := make([]*RegionProfile, 0, len(rt.regionProf))
	for _, p := range rt.regionProf {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallCycles != out[j].WallCycles {
			return out[i].WallCycles > out[j].WallCycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ParallelForReduce runs a worksharing loop whose body returns a partial
// float64 value; partials are combined pairwise up a tree, charged as
// messages (`reduction(+:x)` and friends).
//
// Each thread folds into its own partial slot, with no lock, and the master
// combines the slots in ascending tid order after the join, so the float
// summation order is deterministic by construction (it never depends on
// thread finish order).
func (rt *RT) ParallelForReduce(code *CodeRegion, n int, f For, identity float64,
	body func(tid int, c *machine.Context, lo, hi int) float64,
	combine func(a, b float64) float64) float64 {

	nt := len(rt.ctxs)
	partials := rt.partials
	for i := range partials {
		partials[i] = identity
	}
	inner := func(tid int, c *machine.Context, lo, hi int) {
		v := body(tid, c, lo, hi)
		partials[tid] = combine(partials[tid], v)
	}
	rt.ParallelFor(code, n, f, inner)

	// Tree combine with message costs charged to the master-side wall: the
	// reduction happens inside the implicit barrier in real runtimes; here
	// we charge ⌈log2 T⌉ message rounds.
	result := partials[0]
	for i := 1; i < nt; i++ {
		result = combine(result, partials[i])
	}
	rounds := uint64(bits.Len(uint(nt - 1))) // ⌈log2 nt⌉
	rt.wall += rounds * rt.m.Model.Costs.MsgCyc
	return result
}

// TotalCounters merges every context's counters.
func (rt *RT) TotalCounters() profile.Counters {
	var total profile.Counters
	for _, c := range rt.ctxs {
		total.Add(&c.Ctr)
	}
	return total
}
