package npb

import (
	"runtime"
	"testing"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/memo"
	"hugeomp/internal/units"
)

// Throughput floors `make bench` enforces:
// `go test -run '^$' -bench . ./internal/npb/`.

// floorMinWall is the least accumulated timing a ratio floor is judged on:
// several passes, so the framework's one-pass calibration run, which host
// noise can swing by 2x, never trips it.
const floorMinWall = 250 * time.Millisecond

// minSnapshotForkSpeedup is the floor on the repeated sweep: fork+memo must
// beat cold construction by this factor, or a fork stopped skipping
// construction (it rebuilds the address space or re-runs a kernel's Setup)
// or the memo stopped hitting.
const minSnapshotForkSpeedup = 3.0

// snapshotForkConfig is one cell of the repeated sweep: CG at class T on 2
// threads, with the page-walk cost as the swept parameter.
func snapshotForkConfig(walkRefCyc uint64) RunConfig {
	m := machine.Opteron270()
	m.Costs.WalkRefCyc = walkRefCyc
	return RunConfig{Model: m, Threads: 2, Policy: core.Policy4K, Class: ClassT}
}

// BenchmarkSnapshotForkSweep times a 16-cell CG sweep — 4 walk costs × 4
// repeats, the shape of a sweep whose outer product revisits grid points —
// built cold per cell, then through one warm template forked per unique
// cell with the other 12 served from a result memo. Template construction
// counts against the fork side, so the ratio is end to end.
func BenchmarkSnapshotForkSweep(b *testing.B) {
	walks := []uint64{10, 25, 50, 100}
	const repeats = 4
	var cold, fork time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for r := 0; r < repeats; r++ {
			for _, wv := range walks {
				k, err := New("CG")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(k, snapshotForkConfig(wv)); err != nil {
					b.Fatal(err)
				}
			}
		}
		cold += time.Since(start)

		start = time.Now()
		warm, err := NewWarm("CG", snapshotForkConfig(walks[0]))
		if err != nil {
			b.Fatal(err)
		}
		cache := memo.New()
		for r := 0; r < repeats; r++ {
			for _, wv := range walks {
				cfg := snapshotForkConfig(wv)
				var res Result
				if _, err := cache.GetOrCompute(RunKey("CG", cfg),
					func() (any, error) { return warm.Run(cfg) }, &res); err != nil {
					b.Fatal(err)
				}
			}
		}
		fork += time.Since(start)
		if hits, _ := cache.Stats(); hits != uint64(len(walks)*(repeats-1)) {
			b.Fatalf("memo served %d hits on the repeated sweep, want %d", hits, len(walks)*(repeats-1))
		}
	}
	speedup := cold.Seconds() / fork.Seconds()
	b.ReportMetric(speedup, "x-vs-cold")
	if cold+fork >= floorMinWall && speedup < minSnapshotForkSpeedup {
		b.Fatalf("fork+memo sweep %.2fx faster than cold, floor %.1fx", speedup, minSnapshotForkSpeedup)
	}
}

// minCGSpeedup4 is the parallel-efficiency floor: class-W CG on 4
// simulated threads must beat 1 thread by this factor, or shared state or
// counter contention has crept back into the parallel path.
const minCGSpeedup4 = 1.5

// cgRegionTime runs class-W CG's regions on the default Opteron 270 with
// the given team size and returns their host wall time; setup (matrix
// generation) is not timed.
func cgRegionTime(b *testing.B, threads int) time.Duration {
	shared := int64(64 * units.MB)
	sys, err := core.NewSystem(core.Config{
		Model: machine.Opteron270(), Policy: core.Policy4K, SharedBytes: shared, PhysBytes: 4 * shared,
	})
	if err != nil {
		b.Fatal(err)
	}
	k := NewCG()
	if err := k.Setup(sys, ClassW); err != nil {
		b.Fatal(err)
	}
	sys.Seal()
	rt, err := sys.NewRT(threads)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	if err := k.Run(rt, k.DefaultIterations(ClassW)); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkCGMulticore times class-W CG on 4 simulated threads against 1.
// A team can only speed up with a host proc per thread, so hosts with fewer
// than 4 procs skip it.
func BenchmarkCGMulticore(b *testing.B) {
	if host := runtime.NumCPU(); host < 4 {
		b.Skipf("note: the 4-thread CG speedup floor needs >= 4 host procs, this host has %d", host)
	}
	var one, four time.Duration
	for i := 0; i < b.N; i++ {
		one += cgRegionTime(b, 1)
		four += cgRegionTime(b, 4)
	}
	speedup := one.Seconds() / four.Seconds()
	b.ReportMetric(speedup, "x-vs-1-thread")
	if speedup < minCGSpeedup4 {
		b.Fatalf("CG 4-thread speedup %.2fx, floor %.1fx", speedup, minCGSpeedup4)
	}
}
