package npb

import (
	"fmt"

	"hugeomp/internal/core"
	"hugeomp/internal/omp"
	"hugeomp/internal/units"
)

// Warm is a reusable warmed template for repeated runs of one kernel
// configuration: a snapshot of the fully constructed system (page tables,
// hugetlbfs pool, SCASH regions — everything NewSystem and Setup build) plus
// the kernel's post-Setup state. Each Run forks both — O(metadata) for the
// system via the copy-on-write page table, a few slice copies for the
// kernel's mutable arrays — skipping the address-space construction and
// matrix generation that dominate short runs, and produces a Result
// bit-identical to a cold Run of the same config (NewRT configures fresh
// hardware contexts either way).
//
// The address-space-shaping fields of the template config — Policy, Class,
// Hugetlb, HugePages — are fixed at capture time and must match on every
// Run. Everything applied at or after NewRT is free per fork: Model (the
// machine rebuilds its contexts from it), Barrier, Threads, Iterations. Fault plans fire during construction, which forks skip by
// definition, so faulted configs must take the cold path (Run rejects them).
type Warm struct {
	base RunConfig
	snap *core.Snapshot
	kern Kernel // frozen post-Setup state; never run
}

// NewWarm builds the system and kernel once, cold, exactly as Run would, and
// freezes them. cfg's construction-shaping fields define the template;
// cfg.Fault must be nil.
func NewWarm(name string, cfg RunConfig) (*Warm, error) {
	if cfg.Fault != nil {
		return nil, fmt.Errorf("npb: warm template with a fault plan (faulted configs run cold)")
	}
	k, err := New(name)
	if err != nil {
		return nil, err
	}
	if _, ok := k.(forker); !ok {
		return nil, fmt.Errorf("npb: kernel %s does not support warm forking", k.Name())
	}
	shared := sharedBytesFor(cfg.Class)
	sys, err := core.NewSystem(core.Config{
		Model:       cfg.Model,
		Policy:      cfg.Policy,
		Sharing:     cfg.Sharing,
		Barrier:     cfg.Barrier,
		SharedBytes: shared,
		PhysBytes:   4 * shared,
		HugePages:   cfg.HugePages,
	})
	if err != nil {
		return nil, fmt.Errorf("npb: system: %w", err)
	}
	if err := k.Setup(sys, cfg.Class); err != nil {
		return nil, fmt.Errorf("npb: setup %s: %w", k.Name(), err)
	}
	sys.Seal()
	return &Warm{base: cfg, snap: sys.Snapshot(), kern: k}, nil
}

// Kernel returns the template's kernel name.
func (w *Warm) Kernel() string { return w.kern.Name() }

// Run forks the warmed template and executes one run under cfg. Safe for
// concurrent calls (sweep drivers fork under internal/par).
func (w *Warm) Run(cfg RunConfig) (Result, error) {
	res, _, _, _, err := w.runOn(cfg)
	return res, err
}

// RunOn is Run returning the forked system and runtime alongside the result,
// mirroring the package-level RunOn for harnesses that audit post-run state.
// Like the package-level RunOn, a fork whose Run or Verify failed — including
// a context abort — comes back alongside the error for post-mortem audit.
func (w *Warm) RunOn(cfg RunConfig) (Result, *core.System, *omp.RT, error) {
	res, _, sys, rt, err := w.runOn(cfg)
	return res, sys, rt, err
}

// RunChecksum is Run additionally returning the forked kernel's solution
// checksum (the fingerprint chaos baselines memoize).
func (w *Warm) RunChecksum(cfg RunConfig) (Result, float64, error) {
	res, fk, _, _, err := w.runOn(cfg)
	if err != nil {
		return Result{}, 0, err
	}
	return res, Checksum(fk), nil
}

func (w *Warm) runOn(cfg RunConfig) (Result, Kernel, *core.System, *omp.RT, error) {
	if cfg.Policy != w.base.Policy || cfg.Class != w.base.Class ||
		cfg.Hugetlb != w.base.Hugetlb || cfg.HugePages != w.base.HugePages {
		return Result{}, nil, nil, nil, fmt.Errorf(
			"npb: warm run config reshapes the address space (policy/class/hugetlb/pool must match the template)")
	}
	if cfg.Fault != nil {
		return Result{}, nil, nil, nil, fmt.Errorf("npb: warm run with a fault plan (faulted configs run cold)")
	}
	fk, _ := forkKernel(w.kern)
	sys := w.snap.Fork()
	// Everything the runtime derives at NewRT time is free per fork: the
	// machine rebuilds its contexts from Model, the barrier comes from Cfg.
	sys.Cfg.Model = cfg.Model
	sys.Cfg.Sharing = cfg.Sharing
	sys.Cfg.Barrier = cfg.Barrier
	sys.Machine.Model = cfg.Model
	rt, err := sys.NewRT(cfg.Threads)
	if err != nil {
		return Result{}, nil, nil, nil, err
	}
	if cfg.Ctx != nil {
		rt.Bind(cfg.Ctx)
	}
	iters := cfg.Iterations
	if iters == 0 {
		iters = fk.DefaultIterations(cfg.Class)
	}
	if err := fk.Run(rt, iters); err != nil {
		return Result{}, fk, sys, rt, fmt.Errorf("npb: run %s: %w", fk.Name(), err)
	}
	if err := fk.Verify(); err != nil {
		return Result{}, fk, sys, rt, fmt.Errorf("npb: verify %s: %w", fk.Name(), err)
	}
	return Result{
		Kernel:   fk.Name(),
		Class:    cfg.Class,
		Model:    cfg.Model.Name,
		Threads:  cfg.Threads,
		Policy:   cfg.Policy,
		Cycles:   rt.WallCycles(),
		Seconds:  rt.Seconds(),
		Counters: rt.TotalCounters(),
		Regions:  rt.RegionProfiles(),
		DataMB:   float64(sys.DataFootprint()) / float64(units.MB),
		InstrMB:  float64(sys.InstrFootprint()) / float64(units.MB),
		Degraded: sys.Degraded,
		OS:       sys.OSCounters(),
	}, fk, sys, rt, nil
}
