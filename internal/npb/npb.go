// Package npb implements the five OpenMP NAS Parallel Benchmarks of the
// paper's evaluation — BT, CG, FT, SP and MG — against the simulated memory
// system. Each kernel performs its real computation (CG really solves a
// sparse system, FT really transforms and inverts) while every array access
// is driven through the TLB/cache model, so the DTLB behaviour the paper
// studies emerges from the kernels' genuine access patterns:
//
//   - BT: sequential sweeps over 5x5 blocks of 8-byte arrays (paper §4.2),
//     touching many distinct arrays per point.
//   - CG: random sparse-matrix rows gathered from a vector whose span
//     exceeds the 4 KB TLB reach.
//   - FT: many small DFTs (unit stride) plus a pencil pass whose stride
//     exceeds a 4 KB page.
//   - SP: plane-strided line solves whose reuse distance exceeds the 4 KB
//     TLB.
//   - MG: V-cycles over coarse and fine grids testing short and long
//     distance data movement.
//
// Problem classes: the paper runs class B (371 MB – 2.4 GB). Simulating
// billions of accesses per run is infeasible, so our classes T/S/W/A are
// scaled versions whose footprints preserve the class-B relationships to the
// TLB reaches of the two platforms (Opteron: 2.2 MB at 4 KB, 16 MB at 2 MB;
// Xeon: 768 KB at 4 KB, 64 MB at 2 MB): every class-A working set exceeds
// the 4 KB reach by orders of magnitude, CG/SP/MG fit in the 2 MB reach, and
// FT exceeds the Opteron's 16 MB 2 MB-page reach just as class B does.
package npb

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hugeomp/internal/core"
	"hugeomp/internal/faultinject"
	"hugeomp/internal/hugetlbfs"
	"hugeomp/internal/machine"
	"hugeomp/internal/omp"
	"hugeomp/internal/profile"
	"hugeomp/internal/units"
)

// Class is a scaled problem class.
type Class uint8

const (
	ClassT Class = iota // tiny: unit tests
	ClassS              // small: fast integration tests
	ClassW              // workstation: quick experiments
	ClassA              // full reproduction runs (the paper's class B analogue)
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassS:
		return "S"
	case ClassW:
		return "W"
	case ClassA:
		return "A"
	default:
		return "T"
	}
}

// ParseClass converts "T"/"S"/"W"/"A".
func ParseClass(s string) (Class, error) {
	switch s {
	case "T", "t":
		return ClassT, nil
	case "S", "s":
		return ClassS, nil
	case "W", "w":
		return ClassW, nil
	case "A", "a":
		return ClassA, nil
	}
	return 0, fmt.Errorf("npb: unknown class %q", s)
}

// Kernel is one benchmark.
type Kernel interface {
	// Name returns the benchmark's NPB name (BT, CG, FT, SP, MG).
	Name() string
	// Setup allocates and initialises the kernel's globals on sys.
	Setup(sys *core.System, class Class) error
	// Run executes iterations timesteps on the runtime.
	Run(rt *omp.RT, iterations int) error
	// Verify checks the numerical result of the last Run.
	Verify() error
	// DefaultIterations returns the timestep count for a class.
	DefaultIterations(class Class) int
	// PaperFootprint returns the paper's Table 2 class-B instruction and
	// data footprints in bytes (for the Table 2 reproduction).
	PaperFootprint() (instr, data int64)
}

// KernelName returns the Name of the kernel New(name) builds, without
// building it, or New's error for a name it does not know.
func KernelName(name string) (string, error) {
	switch name {
	case "BT", "bt":
		return "BT", nil
	case "CG", "cg":
		return "CG", nil
	case "FT", "ft":
		return "FT", nil
	case "SP", "sp":
		return "SP", nil
	case "MG", "mg":
		return "MG", nil
	}
	return "", fmt.Errorf("npb: unknown kernel %q", name)
}

// New returns a fresh kernel by name, spelled as KernelName accepts it.
func New(name string) (Kernel, error) {
	canon, err := KernelName(name)
	if err != nil {
		return nil, err
	}
	switch canon {
	case "BT":
		return NewBT(), nil
	case "CG":
		return NewCG(), nil
	case "FT":
		return NewFT(), nil
	case "SP":
		return NewSP(), nil
	default:
		return NewMG(), nil
	}
}

// Names lists the kernels in the paper's order.
func Names() []string { return []string{"BT", "CG", "FT", "SP", "MG"} }

// RunConfig configures one benchmark run.
type RunConfig struct {
	Model      machine.Model
	Threads    int
	Policy     core.PagePolicy
	Class      Class
	Iterations int                 // 0 = kernel default
	Sharing    machine.SharingMode // must be SharePartition; kept only because RunKey encodes every field (see machine.SharingMode)
	Barrier    omp.BarrierAlgo
	Hugetlb    int // forwards to core.Config.Hugetlb as a hugetlbfs.Mode: 0 preallocates, 1 reserves on demand

	// HugePages forwards to core.Config.HugePages: 0 sizes the pool to the
	// shared region, core.NoHugePages forces the 4 KB degraded path.
	HugePages int
	// Fault arms deterministic fault injection for the whole run (nil = off).
	// A run with a plan is not content-addressable: RunKey refuses it.
	Fault *faultinject.Plan

	// Ctx, if non-nil, bounds the run: the kernel observes cancellation at
	// its next checkpoint (iteration boundaries and in-region chunk grabs)
	// and Run returns an error wrapping omp.ErrAborted and the context's
	// error. Excluded from JSON encoding so memoization keys never depend
	// on a request's deadline plumbing, only on what is simulated.
	Ctx context.Context `json:"-"`
}

// Result reports one benchmark run.
type Result struct {
	Kernel   string
	Class    Class
	Model    string
	Threads  int
	Policy   core.PagePolicy
	Cycles   uint64
	Seconds  float64
	Counters profile.Counters
	Regions  []*omp.RegionProfile // per-region profile, most expensive first
	DataMB   float64
	InstrMB  float64

	Degraded bool               // the 2 MB region ran on 4 KB fallback pages
	OS       profile.OSCounters // degraded-path events of this run
}

// Run executes one benchmark end to end: build the system, set up the
// kernel, run, verify, and collect counters.
func Run(k Kernel, cfg RunConfig) (Result, error) {
	res, _, _, err := RunOn(k, cfg)
	return res, err
}

// RunOn is Run returning the assembled system and runtime alongside the
// result, for harnesses that audit post-run state (internal/check invariants
// in cmd/chaos) or read per-context counters. When Run or Verify fails after
// the system was assembled — including a context abort — the system and
// runtime are returned alongside the error so the caller can post-mortem the
// abandoned state (an aborted run must still pass check.All).
func RunOn(k Kernel, cfg RunConfig) (Result, *core.System, *omp.RT, error) {
	sys, err := build(k, cfg)
	if err != nil {
		return Result{}, nil, nil, err
	}
	return runSealed(k, sys, cfg)
}

// build assembles the system cfg describes, sets k up on it and seals it:
// the construction a cold run pays every time and a warm template once.
func build(k Kernel, cfg RunConfig) (*core.System, error) {
	shared := sharedBytesFor(cfg.Class)
	sys, err := core.NewSystem(core.Config{
		Model:       cfg.Model,
		Policy:      cfg.Policy,
		Sharing:     cfg.Sharing,
		Barrier:     cfg.Barrier,
		SharedBytes: shared,
		PhysBytes:   4 * shared,
		Hugetlb:     hugetlbfs.Mode(cfg.Hugetlb),
		HugePages:   cfg.HugePages,
		Fault:       cfg.Fault,
	})
	if err != nil {
		return nil, fmt.Errorf("npb: system: %w", err)
	}
	if err := k.Setup(sys, cfg.Class); err != nil {
		return nil, fmt.Errorf("npb: setup %s: %w", k.Name(), err)
	}
	sys.Seal()
	return sys, nil
}

// runSealed runs k, set up on the sealed sys, under cfg's threads, context
// and iterations, verifies it and collects the Result: the one run path of a
// cold run and a warm fork. A failed Run or Verify returns sys and the
// runtime with the error; a failed NewRT returns neither.
func runSealed(k Kernel, sys *core.System, cfg RunConfig) (Result, *core.System, *omp.RT, error) {
	rt, err := sys.NewRT(cfg.Threads)
	if err != nil {
		return Result{}, nil, nil, err
	}
	if cfg.Ctx != nil {
		rt.Bind(cfg.Ctx)
	}
	iters := cfg.Iterations
	if iters == 0 {
		iters = k.DefaultIterations(cfg.Class)
	}
	if err := k.Run(rt, iters); err != nil {
		return Result{}, sys, rt, fmt.Errorf("npb: run %s: %w", k.Name(), err)
	}
	if err := k.Verify(); err != nil {
		return Result{}, sys, rt, fmt.Errorf("npb: verify %s: %w", k.Name(), err)
	}
	return Result{
		Kernel:   k.Name(),
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
	}, sys, rt, nil
}

// Checksum extracts the solution fingerprint of a kernel after a run — the
// value the golden tests freeze and the chaos harness compares across fault
// plans (the robustness contract: injected faults may shift performance
// counters, never this number). NaN for an unknown kernel type.
func Checksum(k Kernel) float64 {
	switch v := k.(type) {
	case *CG:
		s := 0.0
		for _, x := range v.z.Data {
			s += x
		}
		return s
	case *SP:
		return v.checksum
	case *BT:
		return v.checksum
	case *MG:
		return v.normF
	case *FT:
		return v.maxErr
	}
	return math.NaN()
}

// sharedBytesFor sizes the shared region per class (largest kernel, FT,
// defines the bound).
func sharedBytesFor(c Class) int64 {
	switch c {
	case ClassS:
		return 16 * units.MB
	case ClassW:
		return 64 * units.MB
	case ClassA:
		return 192 * units.MB
	default:
		return 8 * units.MB
	}
}

// lcg is a small deterministic pseudo-random generator (NPB uses its own
// linear congruential generator for reproducible inputs; so do we).
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 17
}

// float64 in [0,1).
func (r *lcg) float() float64 { return float64(r.next()%(1<<52)) / float64(uint64(1)<<52) }

// intn returns a value in [0, n).
func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// uniqueSorted draws k distinct values in [0,n) and returns them sorted.
func (r *lcg) uniqueSorted(k, n int) []int {
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
