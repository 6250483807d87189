package npb

import (
	"fmt"
	"math"
	"math/cmplx"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/omp"
)

// FT: a 2D complex FFT (the NPB kernel factors its DFT into many smaller
// DFTs: "FT divides the DFT of any composite size N = N1 x N2 into many
// smaller DFTs of size N1 and N2" — paper §4.2). Row transforms are unit
// stride; the second dimension is transformed in place down "pencils" whose
// element stride is one full row (N1·16 bytes), so every pencil access lands
// on a different 4 KB page and the pencil cycles more pages than the DTLB
// holds. FT has the largest footprint of the suite, exceeding the Opteron's
// 16 MB large-page TLB reach at class A just as class B (2.4 GB) does — the
// reason FT gains little from 2 MB pages in the paper.
type FT struct {
	class  Class
	n1, n2 int

	re, im *core.Array // the complex grid, split re/im (two planes)

	codeRow *omp.CodeRegion
	codePen *omp.CodeRegion
	codeEvo *omp.CodeRegion

	orig   []complex128 // pristine copy for the inverse-transform check
	maxErr float64
	ran    bool
}

// NewFT returns a fresh FT kernel.
func NewFT() *FT { return &FT{} }

// Name implements Kernel.
func (k *FT) Name() string { return "FT" }

// PaperFootprint implements Kernel (Table 2, class B).
func (k *FT) PaperFootprint() (int64, int64) { return mb(1.4), mb(2.4 * 1024) }

func (k *FT) geometry(class Class) (n1, n2 int) {
	// n2 (the pencil length) exceeds the 544-entry Opteron 4 KB DTLB stack
	// from class W; class A's 24 MB footprint exceeds the Opteron's 16 MB
	// 2 MB-page reach.
	switch class {
	case ClassS:
		return 512, 256 // 2MB
	case ClassW:
		return 512, 1024 // 8MB
	case ClassA:
		return 1024, 2048 // 32MB
	default:
		return 128, 64 // 128KB
	}
}

// DefaultIterations implements Kernel: forward+inverse passes.
func (k *FT) DefaultIterations(class Class) int { return 1 }

// Setup implements Kernel.
func (k *FT) Setup(sys *core.System, class Class) error {
	k.class = class
	k.n1, k.n2 = k.geometry(class)
	n := k.n1 * k.n2
	var err error
	if k.re, err = sys.NewArray("ft.re", n); err != nil {
		return err
	}
	if k.im, err = sys.NewArray("ft.im", n); err != nil {
		return err
	}
	if k.codeRow, err = sys.NewCodeRegion("ft.rows", 20*1024); err != nil {
		return err
	}
	if k.codePen, err = sys.NewCodeRegion("ft.pencils", 20*1024); err != nil {
		return err
	}
	if k.codeEvo, err = sys.NewCodeRegion("ft.evolve", 8*1024); err != nil {
		return err
	}
	rng := newLCG(662607)
	k.orig = make([]complex128, n)
	for i := 0; i < n; i++ {
		v := complex(rng.float()-0.5, rng.float()-0.5)
		k.orig[i] = v
		k.re.Data[i] = real(v)
		k.im.Data[i] = imag(v)
	}
	return nil
}

// fft performs an in-place iterative radix-2 Cooley–Tukey transform of the
// `n`-element sequence at offsets start, start+stride, … (inverse when
// inv). Real math on the Data slices; the caller simulates the memory
// traffic of the passes.
func (k *FT) fft(start, n, stride int, inv bool) {
	re, im := k.re.Data, k.im.Data
	at := func(t int) int { return start + t*stride }
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a, b := at(i), at(j)
			re[a], re[b] = re[b], re[a]
			im[a], im[b] = im[b], im[a]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inv {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				a, b := at(i+j), at(i+j+length/2)
				u := complex(re[a], im[a])
				v := complex(re[b], im[b]) * w
				s, d := u+v, u-v
				re[a], im[a] = real(s), imag(s)
				re[b], im[b] = real(d), imag(d)
				w *= wl
			}
		}
	}
	if inv {
		for t := 0; t < n; t++ {
			i := at(t)
			re[i] /= float64(n)
			im[i] /= float64(n)
		}
	}
}

// rowPass transforms every row (unit stride).
func (k *FT) rowPass(rt *omp.RT, inv bool) {
	rt.ParallelFor(k.codeRow, k.n2, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			for r := lo; r < hi; r++ {
				base := r * k.n1
				// log2(n1) butterfly passes stream the row; charge two
				// streaming passes of the row per transform plus the
				// arithmetic.
				k.re.LoadRange(c, base, base+k.n1)
				k.im.LoadRange(c, base, base+k.n1)
				k.fft(base, k.n1, 1, inv)
				k.re.StoreRange(c, base, base+k.n1)
				k.im.StoreRange(c, base, base+k.n1)
				c.Compute(uint64(5 * k.n1 * ilog2(k.n1)))
			}
		})
}

// colBlock is the column-blocking factor of the pencil pass: a cache-blocked
// FFT gathers a block of adjacent columns per row visit (the NPB 3.0 FT is
// similarly cache-blocked), so each touched page serves colBlock accesses
// instead of one. The pass still cycles the full second dimension, which
// exceeds the 4 KB DTLB at class W/A, and the 32 MB class-A footprint
// exceeds the Opteron's 16 MB large-page reach.
const colBlock = 64

// pencilPass transforms every column in place: the gather/scatter walks rows
// whose stride is n1 elements, blocked colBlock columns at a time.
func (k *FT) pencilPass(rt *omp.RT, inv bool) {
	blocks := (k.n1 + colBlock - 1) / colBlock
	rt.ParallelFor(k.codePen, blocks, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			for b := lo; b < hi; b++ {
				cl := b * colBlock
				ch := cl + colBlock
				if ch > k.n1 {
					ch = k.n1
				}
				// Gather the column block row by row (contiguous within a
				// row), transform each column, scatter back.
				for r := 0; r < k.n2; r++ {
					k.re.LoadRange(c, r*k.n1+cl, r*k.n1+ch)
					k.im.LoadRange(c, r*k.n1+cl, r*k.n1+ch)
				}
				for col := cl; col < ch; col++ {
					k.fft(col, k.n2, k.n1, inv)
				}
				for r := 0; r < k.n2; r++ {
					k.re.StoreRange(c, r*k.n1+cl, r*k.n1+ch)
					k.im.StoreRange(c, r*k.n1+cl, r*k.n1+ch)
				}
				c.Compute(uint64(5 * (ch - cl) * k.n2 * ilog2(k.n2)))
			}
		})
}

// evolve multiplies by a diagonal phase factor (the time-evolution step of
// the NPB FT benchmark), one sequential pass.
func (k *FT) evolve(rt *omp.RT, step int) {
	// Element i's phase depends on i only through i%97: one cos and one sin
	// per residue, which the team then only reads. A unit-magnitude factor
	// keeps the inverse check exact.
	var cos, sin [97]float64
	for r := range cos {
		ph := 1e-6 * float64(step) * float64(r)
		cos[r], sin[r] = math.Cos(ph), math.Sin(ph)
	}
	n := k.n1 * k.n2
	rt.ParallelFor(k.codeEvo, n, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			k.re.LoadRange(c, lo, hi)
			k.im.LoadRange(c, lo, hi)
			for i := lo; i < hi; i++ {
				cr, ci := cos[i%97], sin[i%97]
				r, im0 := k.re.Data[i], k.im.Data[i]
				k.re.Data[i] = r*cr - im0*ci
				k.im.Data[i] = r*ci + im0*cr
			}
			k.re.StoreRange(c, lo, hi)
			k.im.StoreRange(c, lo, hi)
			c.Compute(uint64(8 * (hi - lo)))
		})
}

// Run implements Kernel: each iteration does forward 2D FFT, phase
// evolution, inverse 2D FFT, inverse phase evolution — which must
// reconstruct the input.
func (k *FT) Run(rt *omp.RT, iterations int) error {
	for it := 0; it < iterations; it++ {
		if err := rt.Checkpoint(); err != nil {
			return err
		}
		k.rowPass(rt, false)
		k.pencilPass(rt, false)
		k.evolve(rt, it+1)
		k.evolve(rt, -(it + 1)) // unitary inverse of the evolution
		k.pencilPass(rt, true)
		k.rowPass(rt, true)
	}
	// An abort mid-cycle leaves the field un-reconstructed; bail before the
	// error scan would report that as a transform failure.
	if err := rt.Checkpoint(); err != nil {
		return err
	}
	// Compare against the pristine copy.
	k.maxErr = 0
	for i, want := range k.orig {
		got := complex(k.re.Data[i], k.im.Data[i])
		if e := cmplx.Abs(got - want); e > k.maxErr {
			k.maxErr = e
		}
	}
	k.ran = true
	return nil
}

// Verify implements Kernel: FFT⁻¹(FFT(x)) must reproduce x to rounding.
func (k *FT) Verify() error {
	if !k.ran {
		return fmt.Errorf("ft: not run")
	}
	if k.maxErr > 1e-9 {
		return fmt.Errorf("ft: inverse transform error %g exceeds 1e-9", k.maxErr)
	}
	return nil
}

func ilog2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
