package mem

import (
	"testing"

	"hugeomp/internal/units"
)

func TestAllocBothClasses(t *testing.T) {
	p := New(16 * units.MB)
	small, err := p.Alloc4K()
	if err != nil {
		t.Fatal(err)
	}
	large, err := p.Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	if large%uint64(FramesPer2M) != 0 {
		t.Errorf("2MB frame PFN %d not naturally aligned", large)
	}
	if small == large {
		t.Error("overlapping frames")
	}
	if p.Used4K() != 1 || p.Used2M() != 1 {
		t.Errorf("usage = %d,%d want 1,1", p.Used4K(), p.Used2M())
	}
	if got := p.UsedBytes(); got != units.PageSize4K+units.PageSize2M {
		t.Errorf("UsedBytes = %d", got)
	}
}

func TestLargeFramesDisjointFromSmall(t *testing.T) {
	p := New(8 * units.MB)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		pfn, err := p.Alloc4K()
		if err != nil {
			t.Fatal(err)
		}
		if seen[pfn] {
			t.Fatalf("duplicate 4K PFN %d", pfn)
		}
		seen[pfn] = true
	}
	for i := 0; i < 3; i++ {
		pfn, err := p.Alloc2M()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < FramesPer2M; j++ {
			if seen[pfn+uint64(j)] {
				t.Fatalf("2M frame overlaps 4K PFN %d", pfn+uint64(j))
			}
		}
	}
}

func TestExhaustion(t *testing.T) {
	p := New(4 * units.MB) // two 2MB frames
	if _, err := p.Alloc2M(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc2M(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc2M(); err != ErrOutOfMemory {
		t.Errorf("expected ErrOutOfMemory, got %v", err)
	}
	// Small allocations must also fail now.
	if _, err := p.Alloc4K(); err != ErrOutOfMemory {
		t.Errorf("expected ErrOutOfMemory for 4K, got %v", err)
	}
}

// TestAlloc4KSplitsFreed2M: with the bump region gone, a freed 2 MB frame
// (as a rolled-back hugetlbfs preallocation leaves) is split into 4 KB
// frames, in ascending order, before Alloc4K reports exhaustion.
func TestAlloc4KSplitsFreed2M(t *testing.T) {
	p := New(4 * units.MB)
	a, _ := p.Alloc2M()
	if _, err := p.Alloc2M(); err != nil {
		t.Fatal(err)
	}
	p.Free2M(a)
	for i := 0; i < FramesPer2M; i++ {
		pfn, err := p.Alloc4K()
		if err != nil {
			t.Fatalf("4K frame %d: %v", i, err)
		}
		if pfn != a+uint64(i) {
			t.Fatalf("4K frame %d = PFN %d, want %d", i, pfn, a+uint64(i))
		}
	}
	if _, err := p.Alloc4K(); err != ErrOutOfMemory {
		t.Errorf("after the split frame: %v, want ErrOutOfMemory", err)
	}
	if _, err := p.Alloc2M(); err != ErrOutOfMemory {
		t.Errorf("split frame reallocated as 2MB: %v", err)
	}
	if p.Used4K() != FramesPer2M || p.Used2M() != 1 {
		t.Errorf("usage = %d,%d want %d,1", p.Used4K(), p.Used2M(), FramesPer2M)
	}
}

func TestFreeAndReuse(t *testing.T) {
	p := New(4 * units.MB)
	a, _ := p.Alloc2M()
	b, _ := p.Alloc2M()
	p.Free2M(a)
	c, err := p.Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("expected freed frame %d to be reused, got %d", a, c)
	}
	if b == c {
		t.Error("live frame reallocated")
	}
	if p.Used2M() != 2 {
		t.Errorf("Used2M = %d, want 2", p.Used2M())
	}
}

func TestSmallAndLargeMeetInTheMiddle(t *testing.T) {
	p := New(2 * units.MB) // exactly one 2MB frame worth
	// Take one 4K page; the single large frame region is now unavailable.
	if _, err := p.Alloc4K(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc2M(); err != ErrOutOfMemory {
		t.Errorf("expected large alloc to fail after small overlap, got %v", err)
	}
}

func TestConcurrentAlloc(t *testing.T) {
	p := New(64 * units.MB)
	done := make(chan map[uint64]bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			local := map[uint64]bool{}
			for i := 0; i < 200; i++ {
				pfn, err := p.Alloc4K()
				if err != nil {
					break
				}
				local[pfn] = true
			}
			done <- local
		}()
	}
	all := map[uint64]bool{}
	for g := 0; g < 8; g++ {
		for pfn := range <-done {
			if all[pfn] {
				t.Fatalf("PFN %d handed out twice", pfn)
			}
			all[pfn] = true
		}
	}
	if len(all) != 1600 {
		t.Errorf("allocated %d frames, want 1600", len(all))
	}
}
