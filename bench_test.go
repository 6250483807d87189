package hugeomp

// One testing.B benchmark per table and figure of the paper's evaluation
// section, plus ablation benches for the design choices called out in
// DESIGN.md. Figures run at class W here so `go test -bench=.` finishes in
// minutes; the full class-A reproduction is `go run ./cmd/experiments
// -class A` (recorded in EXPERIMENTS.md).

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"hugeomp/internal/bench"
	"hugeomp/internal/core"
	"hugeomp/internal/hugetlbfs"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
	"hugeomp/internal/units"
)

const benchClass = npb.ClassW

var printOnce sync.Map

// printExperiment emits an experiment's rows once per process so benchmark
// repetitions do not spam the output.
func printExperiment(name string, f func(w io.Writer)) {
	if _, dup := printOnce.LoadOrStore(name, true); dup {
		return
	}
	fmt.Fprintf(os.Stdout, "\n=== %s ===\n", name)
	f(os.Stdout)
}

// BenchmarkTable1TLBSizes regenerates Table 1 (processor TLB sizes and
// coverage) from the simulated CPUID descriptors.
func BenchmarkTable1TLBSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printExperiment("Table 1", func(w io.Writer) { bench.Table1(w) })
		_ = machine.Models()
	}
}

// BenchmarkTable2Footprints regenerates Table 2 (application memory
// footprints): every kernel's setup is executed and its instruction and
// data footprints measured.
func BenchmarkTable2Footprints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2Data(benchClass)
		if err != nil {
			b.Fatal(err)
		}
		printExperiment("Table 2", func(w io.Writer) { _ = bench.Table2(w, benchClass) })
		var data float64
		for _, r := range rows {
			data += r.DataMB
		}
		b.ReportMetric(data, "dataMB/suite")
	}
}

// BenchmarkFig3ITLBMissRate regenerates Figure 3: aggregate ITLB misses per
// second for every application at 4 threads on the Opteron with 4 KB pages.
func BenchmarkFig3ITLBMissRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3Data(benchClass)
		if err != nil {
			b.Fatal(err)
		}
		printExperiment("Figure 3", func(w io.Writer) { _ = bench.Fig3(w, benchClass) })
		var worst float64
		for _, r := range rows {
			if r.MissesPerS > worst {
				worst = r.MissesPerS
			}
		}
		b.ReportMetric(worst, "worst-ITLB-miss/s")
	}
}

// BenchmarkFig4Scalability regenerates Figure 4, one sub-benchmark per
// (application, machine, page size, thread count) cell.
func BenchmarkFig4Scalability(b *testing.B) {
	for _, app := range npb.Names() {
		for _, model := range machine.Models() {
			for _, policy := range []core.PagePolicy{core.Policy4K, core.Policy2M} {
				for _, threads := range bench.Fig4Threads(model) {
					name := fmt.Sprintf("%s/%s/%v/%dthr", app, model.Name, policy, threads)
					b.Run(name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							k, err := npb.New(app)
							if err != nil {
								b.Fatal(err)
							}
							res, err := npb.Run(k, npb.RunConfig{
								Model: model, Threads: threads,
								Policy: policy, Class: benchClass,
							})
							if err != nil {
								b.Fatal(err)
							}
							b.ReportMetric(res.Seconds, "sim-sec")
							b.ReportMetric(float64(res.Counters.DTLBWalks()), "walks")
						}
					})
				}
			}
		}
	}
}

// BenchmarkFig5DTLBMisses regenerates Figure 5: normalized DTLB misses at 4
// threads on the Opteron, 4 KB vs 2 MB pages.
func BenchmarkFig5DTLBMisses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5Data(benchClass)
		if err != nil {
			b.Fatal(err)
		}
		printExperiment("Figure 5", func(w io.Writer) { _ = bench.Fig5(w, benchClass) })
		for _, r := range rows {
			if r.Walks2M > 0 {
				b.ReportMetric(float64(r.Walks4K)/float64(r.Walks2M), r.App+"-reduction-x")
			}
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationOnDemand compares the paper's startup preallocation of
// the hugetlbfs pool against reservation-based on-demand allocation.
func BenchmarkAblationOnDemand(b *testing.B) {
	for _, mode := range []hugetlbfs.Mode{hugetlbfs.Preallocate, hugetlbfs.OnDemand} {
		name := "preallocate"
		if mode == hugetlbfs.OnDemand {
			name = "on-demand"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(core.Config{
					Model:       machine.Opteron270(),
					Policy:      core.Policy2M,
					SharedBytes: 64 * units.MB,
					PhysBytes:   512 * units.MB,
					Hugetlb:     mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.NewArray("a", 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBarrier compares the central and tree (dissemination)
// barrier algorithms on a barrier-heavy workload.
func BenchmarkAblationBarrier(b *testing.B) {
	for _, algo := range []omp.BarrierAlgo{omp.CentralBarrier, omp.TreeBarrier} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := npb.NewMG() // many small regions -> many barriers
				res, err := npb.Run(k, npb.RunConfig{
					Model: machine.Opteron270(), Threads: 4,
					Policy: core.Policy4K, Class: npb.ClassS,
					Barrier: algo,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Seconds, "sim-sec")
				b.ReportMetric(float64(res.Counters.BarrierCyc), "barrier-cyc")
			}
		})
	}
}

// BenchmarkAblationSchedule compares static, dynamic and guided loop
// schedules under the strided z-solve workload.
func BenchmarkAblationSchedule(b *testing.B) {
	for _, sched := range []omp.ScheduleKind{omp.Static, omp.Dynamic, omp.Guided} {
		b.Run(sched.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(core.Config{
					Model:       machine.Opteron270(),
					Policy:      core.Policy4K,
					SharedBytes: 32 * units.MB,
				})
				if err != nil {
					b.Fatal(err)
				}
				arr := sys.MustArray("grid", 1<<21) // 16MB
				rt, err := sys.NewRT(4)
				if err != nil {
					b.Fatal(err)
				}
				rt.ParallelFor(nil, 1024, omp.For{Schedule: sched, Chunk: 8},
					func(tid int, c *machine.Context, lo, hi int) {
						for l := lo; l < hi; l++ {
							arr.LoadStride(c, l, 512, 1024) // plane-strided lines
						}
					})
				b.ReportMetric(float64(rt.WallCycles()), "wall-cyc")
			}
		})
	}
}

// BenchmarkAblationMixedPolicy compares the three page policies, including
// the paper's future-work mixed allocator, on CG.
func BenchmarkAblationMixedPolicy(b *testing.B) {
	for _, policy := range []core.PagePolicy{core.Policy4K, core.PolicyMixed, core.Policy2M} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := npb.NewCG()
				res, err := npb.Run(k, npb.RunConfig{
					Model: machine.Opteron270(), Threads: 4,
					Policy: policy, Class: npb.ClassS,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Seconds, "sim-sec")
				b.ReportMetric(float64(res.Counters.DTLBWalks()), "walks")
			}
		})
	}
}

// BenchmarkAblationTransparent compares explicit preallocation (the paper's
// design) against the transparent reservation-based promotion extension and
// the 4KB baseline: after the first-touch warmup, transparent mode should
// approach Policy2M.
func BenchmarkAblationTransparent(b *testing.B) {
	for _, policy := range []core.PagePolicy{core.Policy4K, core.PolicyTransparent, core.Policy2M} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := npb.NewCG()
				res, err := npb.Run(k, npb.RunConfig{
					Model: machine.Opteron270(), Threads: 4,
					Policy: policy, Class: npb.ClassS,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Seconds, "sim-sec")
				b.ReportMetric(float64(res.Counters.DTLBWalks()), "walks")
				b.ReportMetric(float64(res.Counters.SoftFaults), "faults")
			}
		})
	}
}

// --- Simulator throughput (not a paper experiment: how fast the simulator
// itself runs, in simulated accesses per host second) ---

// BenchmarkSimulatorScalarLoads measures the scalar access path.
func BenchmarkSimulatorScalarLoads(b *testing.B) {
	sys, err := core.NewSystem(core.Config{
		Model: machine.Opteron270(), Policy: core.Policy4K, SharedBytes: 32 * units.MB,
	})
	if err != nil {
		b.Fatal(err)
	}
	arr := sys.MustArray("a", 1<<20)
	rt, err := sys.NewRT(1)
	if err != nil {
		b.Fatal(err)
	}
	c := rt.Contexts()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(arr.Addr(i & (1<<20 - 1)))
	}
}

// BenchmarkSimulatorRangeLoads measures the coalesced dense-loop fast path.
func BenchmarkSimulatorRangeLoads(b *testing.B) {
	sys, err := core.NewSystem(core.Config{
		Model: machine.Opteron270(), Policy: core.Policy4K, SharedBytes: 32 * units.MB,
	})
	if err != nil {
		b.Fatal(err)
	}
	arr := sys.MustArray("a", 1<<20)
	rt, err := sys.NewRT(1)
	if err != nil {
		b.Fatal(err)
	}
	c := rt.Contexts()[0]
	const chunk = 1 << 16
	b.ResetTimer()
	for i := 0; i < b.N; i += chunk {
		arr.LoadRange(c, 0, chunk)
	}
}

// BenchmarkSimulatorStridedLoads measures the TLB-hostile strided path
// (every access probes and most walk).
func BenchmarkSimulatorStridedLoads(b *testing.B) {
	sys, err := core.NewSystem(core.Config{
		Model: machine.Opteron270(), Policy: core.Policy4K, SharedBytes: 32 * units.MB,
	})
	if err != nil {
		b.Fatal(err)
	}
	arr := sys.MustArray("a", 1<<21) // 16MB
	rt, err := sys.NewRT(1)
	if err != nil {
		b.Fatal(err)
	}
	c := rt.Contexts()[0]
	const lineLen = 1 << 11
	b.ResetTimer()
	for i := 0; i < b.N; i += lineLen {
		arr.LoadStride(c, 0, lineLen, 1024) // 8KB stride
	}
}
