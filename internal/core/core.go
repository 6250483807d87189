// Package core is the paper's primary contribution: an OpenMP system whose
// application data (global and dynamic, following the Omni/SCASH
// allocate-at-startup design) can be backed by preallocated 2 MB large pages
// from hugetlbfs instead of traditional 4 KB pages, on a simulated
// multi-core machine.
//
// The public surface is System: it assembles the physical memory, process
// page table, hugetlbfs mount, SCASH shared space, simulated machine and the
// OpenMP runtime, under one of three page policies:
//
//   - Policy4K  — the baseline: everything in 4 KB pages.
//   - Policy2M  — the paper's design: all application data in 2 MB pages,
//     preallocated at startup.
//   - PolicyMixed — the paper's future-work proposal: "allocate a mix of
//     large pages for the bigger allocation and the typical 4KB pages for
//     the smaller allocations".
//   - PolicyTransparent — the paper's other future-work item: demand paging
//     with reservation-based transparent promotion to 2 MB pages (see
//     internal/thp).
package core

import (
	"errors"
	"fmt"

	"hugeomp/internal/faultinject"
	"hugeomp/internal/hugetlbfs"
	"hugeomp/internal/machine"
	"hugeomp/internal/mem"
	"hugeomp/internal/omp"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/profile"
	"hugeomp/internal/scash"
	"hugeomp/internal/thp"
	"hugeomp/internal/units"
)

// PagePolicy selects how application data is backed.
type PagePolicy uint8

const (
	Policy4K PagePolicy = iota
	Policy2M
	PolicyMixed
	// PolicyTransparent implements the paper's other future-work item
	// ("ideally, the kernel ... should be able to allocate a mix of large
	// pages ... transparently"): no preallocation, demand paging, and
	// reservation-based promotion to 2 MB pages à la Navarro et al. (the
	// paper's reference [16]) via internal/thp.
	PolicyTransparent
)

// String implements fmt.Stringer.
func (p PagePolicy) String() string {
	switch p {
	case Policy2M:
		return "2MB"
	case PolicyMixed:
		return "mixed"
	case PolicyTransparent:
		return "transparent"
	default:
		return "4KB"
	}
}

// MixedThreshold is the allocation size at and above which PolicyMixed uses
// large pages.
const MixedThreshold = 256 * units.KB

// Address-space layout of the simulated process.
const (
	CodeBase  = units.Addr(4 * units.MB)   // text segment
	DataBase  = units.Addr(1 * units.GB)   // 4 KB-backed shared data region
	HugeBase  = units.Addr(4 * units.GB)   // 2 MB-backed shared data region
	StackBase = units.Addr(256 * units.MB) // small 4 KB-backed private area
)

// Config configures a System.
type Config struct {
	Model   machine.Model
	Policy  PagePolicy
	Sharing machine.SharingMode // must be SharePartition (NewRT refuses others); mirrors npb.RunConfig.Sharing, kept for key stability
	Barrier omp.BarrierAlgo

	PhysBytes   int64 // simulated physical memory (default 8 GB)
	SharedBytes int64 // application data region size (default 256 MB)
	CodeBytes   int64 // text segment size (default 2 MB)

	// Hugetlb selects the large-page allocation strategy (the paper
	// preallocates; OnDemand is the ablation).
	Hugetlb hugetlbfs.Mode

	// HugePages sets the hugetlbfs pool size in 2 MB pages. 0 sizes the
	// pool to fit SharedBytes (the paper's `echo N > nr_hugepages`
	// configuration); NoHugePages models a host whose pool is empty. A pool
	// that cannot back the shared region does not fail the run: the region
	// degrades to 4 KB pages at the same virtual addresses, so the numerics
	// are untouched and only translation costs shift (see System.Degraded).
	HugePages int

	// Fault, if non-nil, arms deterministic fault injection across every
	// subsystem the system assembles: hugetlbfs reservation and pool
	// exhaustion, transient page-table map failures, and THP allocation
	// failure / pressure-triggered demotion.
	Fault *faultinject.Plan
}

// NoHugePages is the Config.HugePages sentinel for an empty large-page pool
// (`vm.nr_hugepages = 0`): the 2 MB policies run fully degraded on 4 KB
// pages.
const NoHugePages = -1

// System is an assembled large-page-aware OpenMP system for one application
// run.
type System struct {
	Cfg     Config
	Phys    *mem.PhysMem
	PT      *pagetable.Table
	Machine *machine.Machine
	FS      *hugetlbfs.FS // nil under Policy4K

	space4K *scash.Space // nil under Policy2M
	space2M *scash.Space // nil under Policy4K

	// THP is the transparent-huge-page manager (PolicyTransparent only).
	THP *thp.Manager

	// Degraded reports that the 2 MB shared region fell back to 4 KB
	// backing (pool empty, too small, or reservation failure — injected or
	// real). The fallback preserves every virtual address, so kernels run
	// unchanged; only the translation costs differ.
	Degraded bool

	codeAlloc *scash.Allocator
	codeUsed  int64
}

// NewSystem builds a system: physical memory, page table, machine, the
// hugetlbfs pool (preallocated up front under the paper's policy) and the
// SCASH shared data region(s).
func NewSystem(cfg Config) (*System, error) {
	if cfg.PhysBytes == 0 {
		cfg.PhysBytes = 8 * units.GB
	}
	if cfg.SharedBytes == 0 {
		cfg.SharedBytes = 256 * units.MB
	}
	if cfg.CodeBytes == 0 {
		cfg.CodeBytes = 2 * units.MB
	}
	s := &System{
		Cfg:  cfg,
		Phys: mem.New(cfg.PhysBytes),
		PT:   pagetable.New(),
	}
	s.Machine = machine.New(cfg.Model)
	s.Machine.AttachProcess(s.PT)
	s.PT.SetFaultPlan(cfg.Fault)

	// Text segment: 4 KB pages (the paper measures ITLB misses to be
	// negligible and does not pursue large pages for code).
	for off := int64(0); off < cfg.CodeBytes; off += units.PageSize4K {
		pfn, err := s.Phys.Alloc4K()
		if err != nil {
			return nil, fmt.Errorf("core: code segment: %w", err)
		}
		if err := s.PT.MapRetry(CodeBase+units.Addr(off), units.Size4K, pfn, pagetable.ProtRead); err != nil {
			return nil, err
		}
	}
	s.codeAlloc = scash.NewAllocator(CodeBase, cfg.CodeBytes)

	if cfg.Policy == PolicyTransparent {
		sp, err := scash.NewSpaceLazy(DataBase, cfg.SharedBytes)
		if err != nil {
			return nil, fmt.Errorf("core: transparent space: %w", err)
		}
		s.space4K = sp
		s.THP = thp.New(s.Phys, s.PT, nil)
		s.THP.SetFaultPlan(cfg.Fault)
		if err := s.THP.Register(DataBase, cfg.SharedBytes); err != nil {
			return nil, fmt.Errorf("core: thp region: %w", err)
		}
		return s, nil
	}

	need2M := cfg.Policy == Policy2M || cfg.Policy == PolicyMixed
	need4K := cfg.Policy == Policy4K || cfg.Policy == PolicyMixed

	if need2M {
		if err := s.mount2M(cfg); err != nil {
			return nil, err
		}
	}
	if need4K {
		sp, err := scash.NewSpace(scash.Config{
			Phys: s.Phys, PT: s.PT, Base: DataBase,
			Size: cfg.SharedBytes, PageSize: units.Size4K,
		})
		if err != nil {
			return nil, fmt.Errorf("core: 4KB space: %w", err)
		}
		s.space4K = sp
	}
	return s, nil
}

// mount2M backs the HugeBase region with 2 MB pages from a hugetlbfs pool,
// degrading to 4 KB backing at the same addresses when the pool cannot cover
// it. Only capacity-class failures degrade — an empty or undersized pool, a
// reservation that could not find contiguous memory (real or injected), or a
// map whose transient-failure retries ran dry; anything else (overlap,
// misalignment) is a real bug and propagates.
func (s *System) mount2M(cfg Config) error {
	need := int((cfg.SharedBytes + units.PageSize2M - 1) / units.PageSize2M)
	pool := need
	switch {
	case cfg.HugePages == NoHugePages:
		pool = 0
	case cfg.HugePages > 0:
		pool = cfg.HugePages
	}
	if pool > 0 {
		err := func() error {
			fs, err := hugetlbfs.MountWithFault(s.Phys, pool, cfg.Hugetlb, cfg.Fault)
			if err != nil {
				return err
			}
			sp, err := scash.NewSpace(scash.Config{
				Phys: s.Phys, PT: s.PT, Base: HugeBase,
				Size: cfg.SharedBytes, PageSize: units.Size2M, Hugetlb: fs,
			})
			if err != nil {
				// Return the pool's frames to physical memory: the
				// degraded region allocates 4 KB frames instead.
				_ = fs.Remove(fmt.Sprintf("scash-%#x", HugeBase))
				_ = fs.Resize(0)
				return err
			}
			s.FS = fs
			s.space2M = sp
			return nil
		}()
		if err == nil {
			return nil
		}
		if !errors.Is(err, mem.ErrOutOfMemory) && !errors.Is(err, hugetlbfs.ErrNoSpace) &&
			!errors.Is(err, pagetable.ErrTransient) {
			return fmt.Errorf("core: 2MB region: %w", err)
		}
	}
	sp, err := scash.NewSpace(scash.Config{
		Phys: s.Phys, PT: s.PT, Base: HugeBase,
		Size: cfg.SharedBytes, PageSize: units.Size4K,
	})
	if err != nil {
		return fmt.Errorf("core: degraded 4KB region: %w", err)
	}
	s.space2M = sp
	s.Degraded = true
	return nil
}

// OSCounters aggregates the run's OS-level degraded-path events: huge-page
// fallbacks, THP demotions and broken reservations, and absorbed transient
// map failures. DSMRefetches is always zero: the SCASH software DSM is not
// modelled.
func (s *System) OSCounters() profile.OSCounters {
	var o profile.OSCounters
	o.PTMapRetries = s.PT.MapRetries()
	if s.Degraded {
		o.HugePageFallbacks = 1
	}
	if s.THP != nil {
		o.THPDemotions = s.THP.Stats.Demotions
		o.BrokenReservations = s.THP.Stats.BrokenReservations
	}
	return o
}

// spaceFor applies the page policy to one allocation.
func (s *System) spaceFor(size int64) *scash.Space {
	switch s.Cfg.Policy {
	case Policy2M:
		return s.space2M
	case PolicyMixed:
		if size >= MixedThreshold {
			return s.space2M
		}
		return s.space4K
	default: // Policy4K and PolicyTransparent
		return s.space4K
	}
}

// Global allocates a transformed global of the given size under the page
// policy (the Omni global→shared-pointer transformation).
func (s *System) Global(name string, size int64) (scash.Symbol, error) {
	return s.spaceFor(size).RegisterGlobal(name, size)
}

// Malloc allocates dynamic shared memory under the page policy.
func (s *System) Malloc(size int64) (units.Addr, error) {
	return s.spaceFor(size).Malloc(size)
}

// Seal ends startup-time global registration in every space.
func (s *System) Seal() {
	if s.space4K != nil {
		s.space4K.Seal()
	}
	if s.space2M != nil {
		s.space2M.Seal()
	}
}

// DataFootprint reports total live application data bytes (Table 2's data
// column).
func (s *System) DataFootprint() int64 {
	var n int64
	if s.space4K != nil {
		n += s.space4K.UsedBytes()
	}
	if s.space2M != nil {
		n += s.space2M.UsedBytes()
	}
	return n
}

// InstrFootprint reports the bytes of the text segment in use (Table 2's
// instruction column).
func (s *System) InstrFootprint() int64 { return s.codeUsed }

// NewCodeRegion carves a code range for one parallel region out of the text
// segment.
func (s *System) NewCodeRegion(name string, size int64) (*omp.CodeRegion, error) {
	base, err := s.codeAlloc.Alloc(size)
	if err != nil {
		return nil, fmt.Errorf("core: code region %q: %w", name, err)
	}
	s.codeUsed += units.AlignUp(size, units.PageSize4K)
	return &omp.CodeRegion{Name: name, Base: base, Size: size}, nil
}

// NewRT creates an OpenMP runtime with nthreads threads. Hardware contexts
// are configured fresh (cold TLBs and caches), and their page-size probe
// hint is primed with the policy's dominant class.
func (s *System) NewRT(nthreads int) (*omp.RT, error) {
	if s.Cfg.Sharing != machine.SharePartition {
		return nil, fmt.Errorf("core: sharing mode %d: only partitioned sharing is simulated", s.Cfg.Sharing)
	}
	rt, err := omp.New(s.Machine, nthreads, omp.WithBarrier(s.Cfg.Barrier))
	if err != nil {
		return nil, err
	}
	hint := units.Size4K
	if s.Cfg.Policy == Policy2M && !s.Degraded {
		hint = units.Size2M
	}
	for _, c := range rt.Contexts() {
		c.SetPageHint(hint)
	}
	if s.THP != nil {
		// Transparent mode: contexts demand-fault into the THP manager,
		// and promotions shoot down every context's stale translations.
		ctxs := rt.Contexts()
		for _, c := range ctxs {
			c.OnFault = s.THP.HandleFault
		}
		s.THP.SetShootdown(func(va units.Addr, size units.PageSize) {
			for _, c := range ctxs {
				c.InvalidatePage(va, size)
			}
		})
	}
	return rt, nil
}
