package npb

import (
	"fmt"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
)

// TestDegradedRunMatchesGoldenChecksums is the degradation contract end to
// end: a 2 MB-policy run on a host with an empty huge-page pool
// (vm.nr_hugepages = 0) silently falls back to 4 KB pages at the same
// virtual addresses and must reproduce the frozen golden checksums exactly —
// only the performance counters may shift.
func TestDegradedRunMatchesGoldenChecksums(t *testing.T) {
	for _, name := range Names() {
		k, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(k, RunConfig{
			Model: machine.Opteron270(), Threads: 1, Policy: core.Policy2M,
			Class: ClassT, HugePages: core.NoHugePages,
		})
		if err != nil {
			t.Fatalf("%s degraded run: %v", name, err)
		}
		if !res.Degraded {
			t.Errorf("%s: empty pool did not set Degraded", name)
		}
		if res.OS.HugePageFallbacks != 1 {
			t.Errorf("%s: HugePageFallbacks = %d, want 1", name, res.OS.HugePageFallbacks)
		}
		if got := fmt.Sprintf("%.17g", checksum(k)); got != goldenT[name] {
			t.Errorf("%s: degraded checksum %s != frozen %s", name, got, goldenT[name])
		}
		if res.Counters.DTLBWalks2M != 0 {
			t.Errorf("%s: degraded run performed %d 2MB walks", name, res.Counters.DTLBWalks2M)
		}
	}
}

// TestUndersizedPoolDegradesWholeRegion: a pool that exists but cannot back
// the whole shared region degrades exactly like an empty one (whole-region
// fallback, not a partial mix), with identical numerics and a costlier TLB
// profile than the healthy 2 MB run. So does a pool larger than physical
// memory: its preallocation fails part-way and rolls back, and the 4 KB
// fallback must find the returned frames.
func TestUndersizedPoolDegradesWholeRegion(t *testing.T) {
	run := func(hugePages int) (Result, float64) {
		k, err := New("CG")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(k, RunConfig{
			Model: machine.Opteron270(), Threads: 2, Policy: core.Policy2M,
			Class: ClassT, HugePages: hugePages,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, checksum(k)
	}
	healthy, healthySum := run(0)
	if healthy.Degraded {
		t.Fatal("full pool degraded")
	}
	// Class T needs 4 pages: give it 1, or 64 (128 MB) on a 32 MB host.
	for _, pages := range []int{1, 64} {
		degraded, degradedSum := run(pages)
		if !degraded.Degraded {
			t.Fatalf("%d-page pool did not degrade", pages)
		}
		if degradedSum != healthySum {
			t.Errorf("%d-page pool: degradation changed the numerics: %v != %v", pages, degradedSum, healthySum)
		}
		if degraded.Counters.DTLBWalks() <= healthy.Counters.DTLBWalks() {
			t.Errorf("%d-page pool: degraded walks %d not above healthy walks %d",
				pages, degraded.Counters.DTLBWalks(), healthy.Counters.DTLBWalks())
		}
	}
}
