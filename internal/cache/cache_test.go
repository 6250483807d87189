package cache

import (
	"testing"
	"testing/quick"

	"hugeomp/internal/units"
)

// mustNew builds a cache whose geometry the test knows to be valid.
func mustNew(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t testing.TB) *Cache {
	// 512B, 2-way, 64B lines -> 8 lines, 4 sets.
	return mustNew(t, Config{SizeBytes: 512, Ways: 2})
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(10) {
		t.Error("cold access hit")
	}
	if !c.Access(10) {
		t.Error("warm access missed")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := small(t) // 4 sets: lines congruent mod 4 conflict
	c.Access(0)
	c.Access(4)
	c.Access(0) // refresh 0; 4 is now LRU
	c.Access(8)
	if c.resident(4) || !c.resident(0) || !c.resident(8) {
		t.Errorf("after filling line 8: resident 0=%v 4=%v 8=%v, want 4 evicted",
			c.resident(0), c.resident(4), c.resident(8))
	}
}

// Property: live line count never exceeds capacity, and an access directly
// after a fill always hits.
func TestCapacityInvariant(t *testing.T) {
	f := func(lines []uint16) bool {
		c := mustNew(t, Config{SizeBytes: 4 * units.KB, Ways: 4}) // 64 lines
		for _, l := range lines {
			c.Access(uint64(l))
			if c.Live() > 64 {
				return false
			}
			if !c.Access(uint64(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBadConfigPanics: the geometries New cannot build, which once
// panicked inside Configure, come back as errors instead.
func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 3 * 64, Ways: 1},                     // 3 sets
		{SizeBytes: 10922 * 64, Ways: 8},                 // lines not divisible by ways
		{SizeBytes: 32, Ways: 1},                         // no whole line
		{SizeBytes: 64 * 64, Ways: 32},                   // wider than the packed set
		{SizeBytes: 4 * units.KB, Ways: 4, LineSize: 48}, // odd line size
	} {
		if c, err := New(cfg); err == nil {
			t.Errorf("New(%+v) = %d lines, want an error", cfg, c.sets*c.assoc)
		}
	}
}

// TestPartitionGeometry: every sharer count gives a valid geometry, counts
// that divide the set count give exactly 1/share of the capacity, and the
// rest round the set count down to a power of two at full associativity.
func TestPartitionGeometry(t *testing.T) {
	cases := []struct {
		cfg        Config
		share      int
		sets, ways int
	}{
		{Config{SizeBytes: 2 * units.MB, Ways: 8}, 1, 4096, 8},
		{Config{SizeBytes: 2 * units.MB, Ways: 8}, 2, 2048, 8},
		{Config{SizeBytes: 2 * units.MB, Ways: 8}, 3, 1024, 8},
		{Config{SizeBytes: 2 * units.MB, Ways: 8}, 4, 1024, 8},
		{Config{SizeBytes: 3 * units.MB, Ways: 12}, 3, 1024, 12},
		{Config{SizeBytes: 3 * units.MB, Ways: 12}, 32, 128, 12},
		{Config{SizeBytes: 8 * units.KB, Ways: 4}, 3, 8, 4},
		{Config{SizeBytes: 16 * 64}, 3, 1, 5}, // one set: sliced by ways
	}
	for _, tc := range cases {
		c, err := New(tc.cfg.Partition(tc.share))
		if err != nil {
			t.Errorf("%+v / %d: %v", tc.cfg, tc.share, err)
			continue
		}
		if c.sets != tc.sets || c.assoc != tc.ways {
			t.Errorf("%+v / %d: %d sets x %d ways, want %d x %d",
				tc.cfg, tc.share, c.sets, c.assoc, tc.sets, tc.ways)
		}
	}
}
