package npb

import (
	"math"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
)

// makeaRows is the test oracle for CG's makea: the row-list builder it
// replaced, which appends every mirrored entry to a per-row slice and packs
// the slices into CSR afterwards.
func makeaRows(n, nzRow int) (a []float64, colidx, rowstr []int64) {
	rng := newLCG(314159)
	type ent struct {
		col int
		v   float64
	}
	half := (nzRow - 1) / 2
	if half < 1 {
		half = 1
	}
	rows := make([][]ent, n)
	for i := 0; i < n; i++ {
		for h := 0; h < half; h++ {
			j := rng.intn(n)
			if j == i {
				j = (j + 1) % n
			}
			v := rng.float() - 0.5
			rows[i] = append(rows[i], ent{j, v})
			rows[j] = append(rows[j], ent{i, v})
		}
	}
	nnz := n * (2*half + 1)
	a, colidx, rowstr = make([]float64, nnz), make([]int64, nnz), make([]int64, n+1)

	pos := 0
	for i := 0; i < n; i++ {
		rowstr[i] = int64(pos)
		rowSum := 0.0
		for _, e := range rows[i] {
			colidx[pos] = int64(e.col)
			a[pos] = e.v
			rowSum += math.Abs(e.v)
			pos++
		}
		colidx[pos] = int64(i)
		a[pos] = rowSum + 0.05
		pos++
		rows[i] = nil
	}
	rowstr[n] = int64(pos)
	return a, colidx, rowstr
}

// TestMakeaMatchesRowListOracle: CG's in-place makea builds, bit for bit,
// the CSR matrix the row-list oracle builds, at every class (class A only
// without -short).
func TestMakeaMatchesRowListOracle(t *testing.T) {
	classes := []Class{ClassT, ClassS, ClassW, ClassA}
	if testing.Short() {
		classes = classes[:3]
	}
	for _, class := range classes {
		shared := sharedBytesFor(class)
		sys, err := core.NewSystem(core.Config{
			Model: machine.Opteron270(), Policy: core.Policy2M, SharedBytes: shared, PhysBytes: 4 * shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		k := NewCG()
		if err := k.Setup(sys, class); err != nil {
			t.Fatalf("class %v: %v", class, err)
		}
		a, colidx, rowstr := makeaRows(k.n, k.nzRow)
		if len(k.a.Data) != len(a) || len(k.colidx.Data) != len(colidx) || len(k.rowstr.Data) != len(rowstr) {
			t.Fatalf("class %v: lengths a/colidx/rowstr %d/%d/%d, oracle %d/%d/%d", class,
				len(k.a.Data), len(k.colidx.Data), len(k.rowstr.Data), len(a), len(colidx), len(rowstr))
		}
		for i, v := range rowstr {
			if k.rowstr.Data[i] != v {
				t.Fatalf("class %v: rowstr[%d] = %d, oracle %d", class, i, k.rowstr.Data[i], v)
			}
		}
		for i := range a {
			if k.colidx.Data[i] != colidx[i] || math.Float64bits(k.a.Data[i]) != math.Float64bits(a[i]) {
				t.Fatalf("class %v: entry %d = (%d, %v), oracle (%d, %v)", class, i,
					k.colidx.Data[i], k.a.Data[i], colidx[i], a[i])
			}
		}
	}
}

// TestColdAllocsScaleWithRegions: a cold run's host allocation grows with
// its parallel regions, never with the rows, lines or points it simulates.
// From class T to class S every kernel may add at most 16 allocations per
// extra region entry, plus a constant. It runs every kernel cold at class
// S twice, so -short (and with it the race detector's run, which counts
// nothing different) skips it.
func TestColdAllocsScaleWithRegions(t *testing.T) {
	if testing.Short() {
		t.Skip("cold class-S runs of every kernel; run without -short")
	}
	cold := func(name string, class Class) (allocs float64, entries uint64) {
		cfg := RunConfig{Model: machine.Opteron270(), Threads: 2, Policy: core.Policy2M, Class: class}
		var res Result
		allocs = testing.AllocsPerRun(1, func() {
			k, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = Run(k, cfg); err != nil {
				t.Fatal(err)
			}
		})
		for _, r := range res.Regions {
			entries += r.Entries
		}
		return allocs, entries
	}
	for _, name := range Names() {
		allocsT, entriesT := cold(name, ClassT)
		allocsS, entriesS := cold(name, ClassS)
		grow, bound := allocsS-allocsT, 16*float64(entriesS-entriesT)+64
		t.Logf("%s: %.0f -> %.0f allocations (%+.0f) over %d -> %d region entries",
			name, allocsT, allocsS, grow, entriesT, entriesS)
		if grow > bound {
			t.Errorf("%s: class S allocates %+.0f over class T, bound %.0f for %d extra region entries",
				name, grow, bound, entriesS-entriesT)
		}
	}
}

// BenchmarkSetup reports each kernel's Setup at class S in ns, bytes and
// allocations per op, with no floor. The system it sets up on is built off
// the clock.
func BenchmarkSetup(b *testing.B) {
	shared := sharedBytesFor(ClassS)
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := core.NewSystem(core.Config{
					Model: machine.Opteron270(), Policy: core.Policy4K, SharedBytes: shared, PhysBytes: 4 * shared,
				})
				if err != nil {
					b.Fatal(err)
				}
				k, err := New(name)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := k.Setup(sys, ClassS); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
