package omp

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hugeomp/internal/machine"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

func newRT(t *testing.T, model machine.Model, threads int, opts ...Option) *RT {
	t.Helper()
	pt := pagetable.New()
	for off := int64(0); off < 16*units.MB; off += units.PageSize4K {
		if err := pt.Map(units.Addr(off), units.Size4K, uint64(off/units.PageSize4K), pagetable.ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	m := machine.New(model)
	m.AttachProcess(pt)
	rt, err := New(m, threads, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestParallelRunsAllThreads(t *testing.T) {
	rt := newRT(t, machine.Opteron270(), 4)
	var ran [4]atomic.Bool
	rt.Parallel(nil, func(tid int, c *machine.Context) {
		ran[tid].Store(true)
	})
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("thread %d did not run", i)
		}
	}
	if rt.regions != 1 {
		t.Errorf("regions = %d", rt.regions)
	}
	if rt.WallCycles() == 0 {
		t.Error("region cost not charged")
	}
}

func TestNestedParallelPanics(t *testing.T) {
	rt := newRT(t, machine.Opteron270(), 2)
	var panicked atomic.Bool
	rt.Parallel(nil, func(tid int, c *machine.Context) {
		if tid == 0 {
			func() {
				defer func() {
					if recover() != nil {
						panicked.Store(true)
					}
				}()
				rt.Parallel(nil, func(int, *machine.Context) {})
			}()
		}
	})
	if !panicked.Load() {
		t.Error("nested parallel should panic")
	}
}

func coverage(t *testing.T, rt *RT, n int, f For) []int32 {
	t.Helper()
	counts := make([]int32, n)
	rt.ParallelFor(nil, n, f, func(tid int, c *machine.Context, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	return counts
}

func TestSchedulesCoverEveryIterationExactlyOnce(t *testing.T) {
	for _, sched := range []For{
		{Schedule: Static},
		{Schedule: Static, Chunk: 3},
		{Schedule: Dynamic},
		{Schedule: Dynamic, Chunk: 7},
		{Schedule: Guided},
		{Schedule: Guided, Chunk: 4},
	} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			rt := newRT(t, machine.Opteron270(), 4)
			counts := coverage(t, rt, n, sched)
			for i, got := range counts {
				if got != 1 {
					t.Errorf("%v n=%d: iteration %d ran %d times", sched, n, i, got)
				}
			}
		}
	}
}

// Property: any (schedule, chunk, n, threads) combination covers [0,n)
// exactly once.
func TestScheduleCoverageProperty(t *testing.T) {
	f := func(kind uint8, chunk uint8, nRaw uint16, threadsRaw uint8) bool {
		n := int(nRaw) % 500
		threads := int(threadsRaw)%4 + 1
		sched := For{
			Schedule: ScheduleKind(kind % 3),
			Chunk:    int(chunk) % 16,
		}
		rt := newRT(t, machine.Opteron270(), threads)
		counts := coverage(t, rt, n, sched)
		for _, got := range counts {
			if got != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStaticDefaultIsContiguousBlocks(t *testing.T) {
	rt := newRT(t, machine.Opteron270(), 4)
	bounds := make([][2]int, 4)
	rt.ParallelFor(nil, 100, For{Schedule: Static}, func(tid int, c *machine.Context, lo, hi int) {
		bounds[tid] = [2]int{lo, hi}
	})
	if bounds[0] != [2]int{0, 25} || bounds[3] != [2]int{75, 100} {
		t.Errorf("static blocks = %v", bounds)
	}
}

func TestReduction(t *testing.T) {
	rt := newRT(t, machine.Opteron270(), 4)
	// Sum of 0..999 (the paper's Algorithm 3.1 shape).
	got := rt.ParallelForReduce(nil, 1000, For{Schedule: Static}, 0,
		func(tid int, c *machine.Context, lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		}, func(a, b float64) float64 { return a + b })
	if got != 499500 {
		t.Errorf("reduction = %v, want 499500", got)
	}
}

// TestReductionDeterministic: the mutex-free reduction combines the
// per-thread partials in tid order after the join, so a float combine whose
// result depends on operand order must come out bit-identical on every run —
// equal to the serial tid-order fold — no matter how the threads interleave.
func TestReductionDeterministic(t *testing.T) {
	const threads, n = 4, 1000
	// Mixed magnitudes make float addition order-sensitive.
	val := func(i int) float64 { return 1e16*float64(i%7) + 1e-3*float64(i) }
	body := func(tid int, c *machine.Context, lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += val(i)
		}
		return s
	}
	add := func(a, b float64) float64 { return a + b }

	// Serial reference: fold the per-thread partials in tid order.
	ref := newRT(t, machine.Opteron270(), threads)
	want := 0.0
	for tid := 0; tid < threads; tid++ {
		lo, hi := tid*n/threads, (tid+1)*n/threads
		want = add(want, body(tid, ref.Contexts()[0], lo, hi))
	}

	for rep := 0; rep < 10; rep++ {
		rt := newRT(t, machine.Opteron270(), threads)
		got := rt.ParallelForReduce(nil, n, For{Schedule: Static}, 0, body, add)
		if got != want {
			t.Fatalf("rep %d: reduction = %v, want tid-order fold %v", rep, got, want)
		}
	}
}

// TestBarrierMovesRealMessages: a barrier charges each thread MsgCyc per
// message hop it takes part in — for the central barrier 2(n−1) at the
// master and 2 at every other thread, for the dissemination barrier 2 in
// each of its ⌈log2 n⌉ rounds at every thread — at every team size, through
// both the goroutine team (Parallel) and the virtual-time scheduler.
func TestBarrierMovesRealMessages(t *testing.T) {
	model := machine.XeonHT()
	msg := model.Costs.MsgCyc
	paths := map[string]func(rt *RT){
		"parallel": func(rt *RT) { rt.Parallel(nil, func(int, *machine.Context) {}) },
		"virtual-time": func(rt *RT) {
			rt.ParallelFor(nil, 16, For{Schedule: Dynamic}, func(int, *machine.Context, int, int) {})
		},
	}
	for _, algo := range []BarrierAlgo{CentralBarrier, TreeBarrier} {
		for n := 1; n <= model.MaxThreads(); n++ {
			rounds := uint64(0)
			for r := 1; r < n; r <<= 1 {
				rounds++
			}
			for name, run := range paths {
				rt := newRT(t, model, n, WithBarrier(algo))
				run(rt)
				for tid, c := range rt.Contexts() {
					var hops uint64
					switch {
					case n == 1:
					case algo == TreeBarrier:
						hops = 2 * rounds
					case tid == 0:
						hops = 2 * uint64(n-1)
					default:
						hops = 2
					}
					if got, want := c.Ctr.BarrierCyc, hops*msg; got != want {
						t.Errorf("%v/%s n=%d tid %d: BarrierCyc = %d, want %d (%d hops)", algo, name, n, tid, got, want, hops)
					}
				}
			}
		}
	}
}

func TestCentralBarrierCostsMoreAtMaster(t *testing.T) {
	rtc := newRT(t, machine.Opteron270(), 4, WithBarrier(CentralBarrier))
	rtt := newRT(t, machine.Opteron270(), 4, WithBarrier(TreeBarrier))
	rtc.Parallel(nil, func(int, *machine.Context) {})
	rtt.Parallel(nil, func(int, *machine.Context) {})
	// Central master: 2*(T-1) = 6 message costs; tree: 2*ceil(log2 4) = 4.
	mc := rtc.Contexts()[0].Ctr.BarrierCyc
	mt := rtt.Contexts()[0].Ctr.BarrierCyc
	if mc <= mt {
		t.Errorf("central master barrier cycles %d <= tree %d", mc, mt)
	}
}

func TestSMTCoreSerialisationInWallClock(t *testing.T) {
	// The same total work on the Xeon at 4 threads vs 8 threads: wall time
	// must NOT improve by 2x (siblings serialise); the paper's Figure 4.
	run := func(threads int) uint64 {
		rt := newRT(t, machine.XeonHT(), threads)
		rt.ParallelFor(nil, 1<<16, For{Schedule: Static},
			func(tid int, c *machine.Context, lo, hi int) {
				c.AccessRange(units.Addr(lo*8), hi-lo, 8, false)
				c.Compute(uint64(hi-lo) * 4)
			})
		return rt.WallCycles()
	}
	t4, t8 := run(4), run(8)
	if float64(t4)/float64(t8) > 1.3 {
		t.Errorf("8 threads %.2fx faster than 4 on SMT; siblings should serialise (t4=%d t8=%d)",
			float64(t4)/float64(t8), t4, t8)
	}
}

func TestScalingOnSeparateCores(t *testing.T) {
	// 1 -> 4 threads on the Opteron should speed up nearly linearly for a
	// compute-heavy loop.
	run := func(threads int) uint64 {
		rt := newRT(t, machine.Opteron270(), threads)
		rt.ParallelFor(nil, 1<<14, For{Schedule: Static},
			func(tid int, c *machine.Context, lo, hi int) {
				c.Compute(uint64(hi-lo) * 400)
			})
		return rt.WallCycles()
	}
	t1, t4 := run(1), run(4)
	speedup := float64(t1) / float64(t4)
	if speedup < 3.2 {
		t.Errorf("4-thread speedup = %.2f, want >3.2", speedup)
	}
}

func TestCodeRegionFetches(t *testing.T) {
	rt := newRT(t, machine.Opteron270(), 2)
	code := &CodeRegion{Name: "loop", Base: 0, Size: 3 * units.PageSize4K}
	rt.Parallel(code, func(tid int, c *machine.Context) {})
	total := rt.TotalCounters()
	if total.Fetches != 2*3 {
		t.Errorf("fetches = %d, want 6 (3 pages x 2 threads)", total.Fetches)
	}
}

func TestDynamicBalancesSkewedWork(t *testing.T) {
	// Iteration i costs i cycles; static gives thread 3 the heavy tail,
	// dynamic balances. Wall clock must be lower with dynamic.
	run := func(f For) uint64 {
		rt := newRT(t, machine.Opteron270(), 4)
		rt.ParallelFor(nil, 2000, f, func(tid int, c *machine.Context, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Compute(uint64(i))
			}
		})
		return rt.WallCycles()
	}
	static := run(For{Schedule: Static})
	dynamic := run(For{Schedule: Dynamic, Chunk: 16})
	if dynamic >= static {
		t.Errorf("dynamic (%d) not faster than static (%d) on skewed work", dynamic, static)
	}
}

func TestConcurrentCounterIsolation(t *testing.T) {
	// Contexts accumulate independently without data races (run with -race).
	rt := newRT(t, machine.Opteron270(), 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	rt.ParallelFor(nil, 4096, For{Schedule: Static},
		func(tid int, c *machine.Context, lo, hi int) {
			c.AccessRange(units.Addr(lo*8), hi-lo, 8, false)
		})
	wg.Wait()
	total := rt.TotalCounters()
	if total.Loads != 4096 {
		t.Errorf("loads = %d", total.Loads)
	}
}

func TestRegionProfilesAttributeWork(t *testing.T) {
	rt := newRT(t, machine.Opteron270(), 2)
	heavy := &CodeRegion{Name: "heavy", Base: 0, Size: units.PageSize4K}
	light := &CodeRegion{Name: "light", Base: units.Addr(units.PageSize4K), Size: units.PageSize4K}
	for i := 0; i < 3; i++ {
		rt.ParallelFor(heavy, 1024, For{}, func(tid int, c *machine.Context, lo, hi int) {
			c.Compute(uint64(1000 * (hi - lo)))
		})
	}
	rt.ParallelFor(light, 16, For{}, func(tid int, c *machine.Context, lo, hi int) {
		c.Compute(uint64(hi - lo))
	})
	profs := rt.RegionProfiles()
	if len(profs) != 2 {
		t.Fatalf("profiles = %d, want 2", len(profs))
	}
	if profs[0].Name != "heavy" {
		t.Errorf("most expensive region = %s, want heavy", profs[0].Name)
	}
	if profs[0].Entries != 3 {
		t.Errorf("heavy entries = %d", profs[0].Entries)
	}
	var sum uint64
	for _, p := range profs {
		sum += p.WallCycles
	}
	if sum != rt.WallCycles() {
		t.Errorf("region wall sum %d != total wall %d", sum, rt.WallCycles())
	}
}

func TestInterleavedSMTHidesMemoryStalls(t *testing.T) {
	// The same memory-bound work on a flush-on-switch core vs an
	// interleaved core (paper §2.1's two SMT designs): with both hardware
	// threads of a core loaded, the interleaved design overlaps one
	// thread's stalls with the other's execution.
	run := func(model machine.Model) uint64 {
		rt := newRT(t, model, model.MaxThreads())
		rt.ParallelFor(nil, 1<<11, For{Schedule: Static},
			func(tid int, c *machine.Context, lo, hi int) {
				// Strided loads: all memory misses (within the mapped 16MB).
				c.AccessRange(units.Addr(lo*4096), hi-lo, 4096, false)
			})
		return rt.WallCycles()
	}
	flush := machine.XeonHT() // 2 threads/core, flush on switch
	inter := flush
	inter.SMT = machine.SMTInterleave
	inter.Name = "XeonInterleave"
	wFlush, wInter := run(flush), run(inter)
	if wInter >= wFlush {
		t.Errorf("interleaved SMT (%d cyc) not faster than flush-on-switch (%d cyc)", wInter, wFlush)
	}
}
