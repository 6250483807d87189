package npb

import (
	"fmt"
	"math"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/omp"
)

// BT: a block-tridiagonal ADI solver. "BT sequentially accesses 5x5 blocks
// of 8-byte arrays. Several of these might fit in a single large page"
// (paper §4.2). The five solution components are interleaved per point
// (array-of-structures, as in the Fortran original), so sweeps are dense and
// unit-stride with heavy per-point 5x5 block arithmetic — the page walk cost
// is amortised over hundreds of accesses per page, which is why BT shows no
// significant large-page gain in the paper's Figure 4.
type BT struct {
	class      Class
	nx, ny, nz int

	u       *core.Array // 5 components per point, interleaved
	rhs     *core.Array // 5 components per point
	forcing *core.Array // 5 components per point
	qs      *core.Array // dynamic pressure per point
	square  *core.Array // square of velocities per point

	codeRHS   *omp.CodeRegion
	codeSolve *omp.CodeRegion
	codeAdd   *omp.CodeRegion

	initial  float64
	checksum float64
	ran      bool
}

// NewBT returns a fresh BT kernel.
func NewBT() *BT { return &BT{} }

// Name implements Kernel.
func (k *BT) Name() string { return "BT" }

// PaperFootprint implements Kernel (Table 2, class B).
func (k *BT) PaperFootprint() (int64, int64) { return mb(1.6), mb(371) }

func (k *BT) geometry(class Class) (nx, ny, nz int) {
	switch class {
	case ClassS:
		return 24, 24, 24
	case ClassW:
		return 32, 32, 32
	case ClassA:
		return 40, 40, 40
	default:
		return 12, 12, 12
	}
}

// DefaultIterations implements Kernel.
func (k *BT) DefaultIterations(class Class) int {
	switch class {
	case ClassS, ClassW:
		return 3
	case ClassA:
		return 4
	default:
		return 2
	}
}

func (k *BT) npts() int { return k.nx * k.ny * k.nz }

// pidx returns the point index of (i,j,kk).
func (k *BT) pidx(i, j, kk int) int { return i + k.nx*(j+k.ny*kk) }

// Setup implements Kernel.
func (k *BT) Setup(sys *core.System, class Class) error {
	k.class = class
	k.nx, k.ny, k.nz = k.geometry(class)
	n := k.npts()
	var err error
	if k.u, err = sys.NewArray("bt.u", 5*n); err != nil {
		return err
	}
	if k.rhs, err = sys.NewArray("bt.rhs", 5*n); err != nil {
		return err
	}
	if k.forcing, err = sys.NewArray("bt.forcing", 5*n); err != nil {
		return err
	}
	if k.qs, err = sys.NewArray("bt.qs", n); err != nil {
		return err
	}
	if k.square, err = sys.NewArray("bt.square", n); err != nil {
		return err
	}
	if k.codeRHS, err = sys.NewCodeRegion("bt.rhs", 32*1024); err != nil {
		return err
	}
	if k.codeSolve, err = sys.NewCodeRegion("bt.solve", 64*1024); err != nil {
		return err
	}
	if k.codeAdd, err = sys.NewCodeRegion("bt.add", 8*1024); err != nil {
		return err
	}

	rng := newLCG(161803)
	var sum float64
	for p := 0; p < n; p++ {
		for m := 0; m < 5; m++ {
			v := 1.0 + 0.1*rng.float()
			k.u.Data[5*p+m] = v
			sum += v
			k.forcing.Data[5*p+m] = 0.01 * (rng.float() - 0.5)
		}
	}
	k.initial = sum
	return nil
}

// computeRHS streams every array once, unit stride, with the per-point
// auxiliary computations (qs, square) of the original.
func (k *BT) computeRHS(rt *omp.RT) {
	n := k.npts()
	rt.ParallelFor(k.codeRHS, n, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			k.u.LoadRange(c, 5*lo, 5*hi)
			k.forcing.LoadRange(c, 5*lo, 5*hi)
			for p := lo; p < hi; p++ {
				rhoInv := 1.0 / k.u.Data[5*p]
				sq := 0.0
				for m := 1; m < 4; m++ {
					v := k.u.Data[5*p+m]
					sq += v * v
				}
				k.square.Data[p] = 0.5 * sq * rhoInv
				k.qs.Data[p] = sq * rhoInv * rhoInv
				for m := 0; m < 5; m++ {
					k.rhs.Data[5*p+m] = k.forcing.Data[5*p+m] - 0.05*(k.u.Data[5*p+m]-1.0)
				}
			}
			k.square.StoreRange(c, lo, hi)
			k.qs.StoreRange(c, lo, hi)
			k.rhs.StoreRange(c, 5*lo, 5*hi)
			c.Compute(uint64(25 * (hi - lo)))
		})
}

// solveLine performs a block-tridiagonal Thomas solve along a line of count
// points whose consecutive points are strideP points apart. The 5x5 block
// work (two block multiplies and one block solve per point, ~125 multiplies
// each) dominates arithmetically, as in the original BT. cp is scratch for
// at least count elimination coefficients, allocated as SP's is.
func (k *BT) solveLine(c *machine.Context, cp []float64, start, count, strideP int, lam float64) {
	b := 1 + 2*lam
	// Forward elimination on each of the 5 interleaved components; the
	// element stride in the array is 5*strideP (AoS layout).
	k.u.LoadStride(c, 5*start, count, 5*strideP)
	k.rhs.LoadStride(c, 5*start, count, 5*strideP)
	cp[0] = -lam / b
	for m := 0; m < 5; m++ {
		e := 5*start + m
		k.u.Data[e] = (k.u.Data[e] + lam*k.rhs.Data[e]) / b
	}
	for t := 1; t < count; t++ {
		den := b + lam*cp[t-1]
		cp[t] = -lam / den
		for m := 0; m < 5; m++ {
			e := 5*(start+t*strideP) + m
			ep := 5*(start+(t-1)*strideP) + m
			k.u.Data[e] = (k.u.Data[e] + lam*k.rhs.Data[e] + lam*k.u.Data[ep]) / den
		}
	}
	for t := count - 2; t >= 0; t-- {
		for m := 0; m < 5; m++ {
			e := 5*(start+t*strideP) + m
			en := 5*(start+(t+1)*strideP) + m
			k.u.Data[e] -= cp[t] * k.u.Data[en]
		}
	}
	k.u.StoreStride(c, 5*start, count, 5*strideP)
	// 5x5 block matmuls: ~250 multiply-adds per point.
	c.Compute(uint64(250 * count))
}

func (k *BT) xSolve(rt *omp.RT, lam float64) {
	lines := k.ny * k.nz
	rt.ParallelFor(k.codeSolve, lines, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			cp := make([]float64, k.nx)
			for l := lo; l < hi; l++ {
				j, kk := l%k.ny, l/k.ny
				k.solveLine(c, cp, k.pidx(0, j, kk), k.nx, 1, lam)
			}
		})
}

func (k *BT) ySolve(rt *omp.RT, lam float64) {
	lines := k.nx * k.nz
	rt.ParallelFor(k.codeSolve, lines, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			cp := make([]float64, k.ny)
			for l := lo; l < hi; l++ {
				i, kk := l%k.nx, l/k.nx
				k.solveLine(c, cp, k.pidx(i, 0, kk), k.ny, k.nx, lam)
			}
		})
}

func (k *BT) zSolve(rt *omp.RT, lam float64) {
	lines := k.nx * k.ny
	rt.ParallelFor(k.codeSolve, lines, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			cp := make([]float64, k.nz)
			for l := lo; l < hi; l++ {
				i, j := l%k.nx, l/k.nx
				k.solveLine(c, cp, k.pidx(i, j, 0), k.nz, k.nx*k.ny, lam)
			}
		})
}

// add applies rhs to u (the final phase of a BT timestep).
func (k *BT) add(rt *omp.RT) {
	n := 5 * k.npts()
	rt.ParallelFor(k.codeAdd, n, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			k.u.LoadRange(c, lo, hi)
			k.rhs.LoadRange(c, lo, hi)
			for e := lo; e < hi; e++ {
				k.u.Data[e] += 0.05 * k.rhs.Data[e]
			}
			k.u.StoreRange(c, lo, hi)
			c.Compute(uint64(2 * (hi - lo)))
		})
}

// Run implements Kernel.
func (k *BT) Run(rt *omp.RT, iterations int) error {
	const lam = 0.4
	for it := 0; it < iterations; it++ {
		if err := rt.Checkpoint(); err != nil {
			return err
		}
		k.computeRHS(rt)
		k.xSolve(rt, lam)
		k.ySolve(rt, lam)
		k.zSolve(rt, lam)
		k.add(rt)
	}
	if err := rt.Checkpoint(); err != nil {
		return err
	}
	k.checksum = rt.ParallelForReduce(k.codeAdd, 5*k.npts(), omp.For{Schedule: omp.Static}, 0,
		func(tid int, c *machine.Context, lo, hi int) float64 {
			k.u.LoadRange(c, lo, hi)
			s := 0.0
			for e := lo; e < hi; e++ {
				s += k.u.Data[e]
			}
			return s
		}, func(a, b float64) float64 { return a + b })
	if err := rt.Checkpoint(); err != nil {
		return err
	}
	k.ran = true
	return nil
}

// Verify implements Kernel.
func (k *BT) Verify() error {
	if !k.ran {
		return fmt.Errorf("bt: not run")
	}
	if math.IsNaN(k.checksum) || math.IsInf(k.checksum, 0) {
		return fmt.Errorf("bt: checksum not finite")
	}
	for e, v := range k.u.Data {
		if math.IsNaN(v) || math.Abs(v) > 1e6 {
			return fmt.Errorf("bt: solution diverged at %d: %g", e, v)
		}
	}
	if math.Abs(k.checksum) > 10*math.Abs(k.initial)+1 {
		return fmt.Errorf("bt: checksum %g far from initial %g", k.checksum, k.initial)
	}
	return nil
}
