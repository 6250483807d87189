// Package faultinject is a deterministic, seed-driven fault-plan engine for
// the simulator. Real systems do not get the paper's luxury of a huge-page
// pool that is "preallocated and always available": pools exhaust, THP
// allocations fail, khugepaged splits mappings under pressure and messages
// are lost on the wire. A Plan decides — reproducibly, from a single seed —
// at which points the simulated memory stack misbehaves, so every degraded
// path can be exercised and replayed exactly.
//
// Design rules:
//
//   - Decisions are pure functions of (seed, site, key). A site is a named
//     injection point ("hugetlbfs/take", "thp/alloc2m", …); the key is either
//     the site's occurrence index (for sites visited in a deterministic
//     order, e.g. single-threaded setup) or a stable site-specific key such
//     as a chunk address or a per-channel message sequence number (for sites
//     reached concurrently, where an occurrence index would depend on
//     goroutine scheduling). Same seed, same plan, same workload ⇒ the same
//     faults fire, in the same places, every run.
//   - A nil *Plan is the disabled engine: every injection point guards with
//     a nil check that costs one compare on the fast path and nothing else.
//   - The fault CONTRACT (enforced by cmd/chaos and the degraded-mode tests)
//     is that an injected fault may only shift performance counters; the run
//     must complete with byte-identical numerics.
package faultinject

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Site names one injection point. The convention is "package/event".
type Site string

// The injection sites threaded through the memory stack. Packages reference
// these constants rather than inventing strings, so the full site inventory
// is auditable here.
const (
	// SiteHugetlbReserve fails a pool reservation (Mount/Resize preallocation
	// growth), keyed by occurrence.
	SiteHugetlbReserve Site = "hugetlbfs/reserve"
	// SiteHugetlbTake fails a frame grab at file-create time (mid-run pool
	// exhaustion, ENOSPC), keyed by occurrence.
	SiteHugetlbTake Site = "hugetlbfs/take"
	// SiteTHPAlloc fails a transparent-huge-page 2 MB reservation, keyed by
	// the chunk's virtual address (schedule-independent under concurrent
	// faulting).
	SiteTHPAlloc Site = "thp/alloc2m"
	// SiteTHPPressure triggers a memory-pressure event that splits (demotes)
	// a promoted 2 MB mapping back to 4 KB pages, keyed by occurrence of the
	// fault handler.
	SiteTHPPressure Site = "thp/pressure"
	// SitePTMap makes a page-table Map transiently fail (the kernel's
	// "try again" paths), keyed by occurrence.
	SitePTMap Site = "pagetable/map"
	// SiteMPILoss loses an MPI control message so the sender retries with
	// backoff, keyed by the (sender,receiver) pair's message sequence.
	SiteMPILoss Site = "mpi/loss"
	// SiteMPIDup duplicates an MPI control message so the receiver drops one,
	// keyed by the pair's receive sequence.
	SiteMPIDup Site = "mpi/dup"
)

// rule configures one site.
type rule struct {
	// threshold compares against the 64-bit site/key hash; a hash below it
	// fires. 0 = never, ^uint64(0) = always.
	threshold uint64
	// exact, when non-nil, overrides threshold: the fault fires exactly at
	// these occurrence keys.
	exact map[uint64]bool
}

// siteState is the runtime state of one armed site.
type siteState struct {
	rule     rule
	count    atomic.Uint64 // occurrence index, pre-increment
	injected atomic.Uint64 // decisions that fired
}

// Plan is one deterministic fault plan. The zero value and the nil plan are
// both fully disabled. Arming (Enable/EnableAt) must finish before the run
// starts; decisions (Should/ShouldKey) are safe for concurrent use.
type Plan struct {
	seed  uint64
	mu    sync.Mutex // guards sites map growth during arming
	sites map[Site]*siteState
}

// New creates an empty plan for seed. An empty plan injects nothing until
// sites are armed.
func New(seed uint64) *Plan {
	return &Plan{seed: seed, sites: make(map[Site]*siteState)}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Enable arms site with a fault rate in [0,1]: each decision fires when the
// (seed, site, key) hash falls below rate. Rate 1 fires every time.
func (p *Plan) Enable(site Site, rate float64) *Plan {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	var th uint64
	if rate == 1 {
		th = ^uint64(0)
	} else {
		th = uint64(rate * float64(1<<63) * 2)
	}
	p.arm(site, rule{threshold: th})
	return p
}

// EnableAt arms site to fire at exactly the given occurrence indices
// (0-based). For key-addressed sites the values are matched against the key.
func (p *Plan) EnableAt(site Site, occurrences ...uint64) *Plan {
	ex := make(map[uint64]bool, len(occurrences))
	for _, o := range occurrences {
		ex[o] = true
	}
	p.arm(site, rule{exact: ex})
	return p
}

func (p *Plan) arm(site Site, r rule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sites[site] = &siteState{rule: r}
}

// Should decides one occurrence-keyed injection: the site's occurrence
// counter provides the key. Nil-safe: a nil plan never fires and keeps no
// counts.
func (p *Plan) Should(site Site) bool {
	if p == nil {
		return false
	}
	s := p.sites[site]
	if s == nil {
		return false
	}
	key := s.count.Add(1) - 1
	return p.decide(site, s, key)
}

// ShouldKey decides one injection for an explicitly keyed site (chunk
// address, message sequence, …). The occurrence counter still advances so
// reports show traffic. Nil-safe.
func (p *Plan) ShouldKey(site Site, key uint64) bool {
	if p == nil {
		return false
	}
	s := p.sites[site]
	if s == nil {
		return false
	}
	s.count.Add(1)
	return p.decide(site, s, key)
}

func (p *Plan) decide(site Site, s *siteState, key uint64) bool {
	var fire bool
	if s.rule.exact != nil {
		fire = s.rule.exact[key]
	} else {
		fire = hash(p.seed, site, key) < s.rule.threshold
	}
	if fire {
		s.injected.Add(1)
	}
	return fire
}

// hash mixes (seed, site, key) with splitmix64; the site name is folded in
// with FNV-1a so distinct sites get independent decision streams.
func hash(seed uint64, site Site, key uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	x := seed ^ h ^ (key * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Count returns how many decisions site has taken (fired or not). Nil-safe.
func (p *Plan) Count(site Site) uint64 {
	if p == nil {
		return 0
	}
	if s := p.sites[site]; s != nil {
		return s.count.Load()
	}
	return 0
}

// Injected returns how many decisions at site fired. Nil-safe.
func (p *Plan) Injected(site Site) uint64 {
	if p == nil {
		return 0
	}
	if s := p.sites[site]; s != nil {
		return s.injected.Load()
	}
	return 0
}

// TotalInjected sums fired decisions across all sites. Nil-safe.
func (p *Plan) TotalInjected() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for _, s := range p.sites {
		n += s.injected.Load()
	}
	return n
}

// String summarises the plan and its activity so far, sites sorted by name
// for stable output.
func (p *Plan) String() string {
	if p == nil {
		return "faultplan(disabled)"
	}
	names := make([]string, 0, len(p.sites))
	for site := range p.sites {
		names = append(names, string(site))
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "faultplan(seed=%#x", p.seed)
	for _, n := range names {
		s := p.sites[Site(n)]
		fmt.Fprintf(&b, " %s:%d/%d", n, s.injected.Load(), s.count.Load())
	}
	b.WriteString(")")
	return b.String()
}
