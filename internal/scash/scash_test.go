package scash

import (
	"errors"
	"testing"
	"testing/quick"

	"hugeomp/internal/hugetlbfs"
	"hugeomp/internal/mem"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

func newSpace4K(t *testing.T, size int64) *Space {
	t.Helper()
	phys := mem.New(256 * units.MB)
	pt := pagetable.New()
	s, err := NewSpace(Config{
		Phys: phys, PT: pt, Base: units.Addr(16 * units.MB),
		Size: size, PageSize: units.Size4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpace4KBacking(t *testing.T) {
	s := newSpace4K(t, 4*units.MB)
	if s.PageSize() != units.Size4K {
		t.Errorf("PageSize = %v", s.PageSize())
	}
}

func TestSpace2MBackingUsesHugetlbfs(t *testing.T) {
	phys := mem.New(64 * units.MB)
	pt := pagetable.New()
	fs, err := hugetlbfs.Mount(phys, 8, hugetlbfs.Preallocate)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpace(Config{
		Phys: phys, PT: pt, Base: units.Addr(16 * units.MB),
		Size: 5 * units.MB, PageSize: units.Size2M, Hugetlb: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5MB rounds to 3 large pages.
	if s.region.length != 6*units.MB {
		t.Errorf("region length = %d", s.region.length)
	}
	if fs.UsedPages() != 3 {
		t.Errorf("hugetlbfs used = %d, want 3", fs.UsedPages())
	}
	wr, err := pt.Translate(s.region.base)
	if err != nil || wr.Entry.Size != units.Size2M {
		t.Errorf("backing not 2MB: %v %v", wr, err)
	}
}

func TestSpace2MWithoutMountFails(t *testing.T) {
	phys := mem.New(64 * units.MB)
	if _, err := NewSpace(Config{
		Phys: phys, PT: pagetable.New(), Base: 0,
		Size: units.MB, PageSize: units.Size2M,
	}); err == nil {
		t.Error("2MB space without hugetlbfs mount should fail")
	}
}

func TestGlobalsTransformation(t *testing.T) {
	s := newSpace4K(t, 4*units.MB)
	a, err := s.RegisterGlobal("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RegisterGlobal("b", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base == b.Base {
		t.Error("globals alias")
	}
	if uint64(a.Base)%4096 != 0 || uint64(b.Base)%4096 != 0 {
		t.Error("globals not page aligned")
	}
	if _, err := s.RegisterGlobal("a", 10); !errors.Is(err, ErrDupSymbol) {
		t.Errorf("duplicate: %v", err)
	}
	got, err := s.Lookup("b")
	if err != nil || got != b {
		t.Errorf("Lookup(b) = %+v, %v", got, err)
	}
	if _, err := s.Lookup("zzz"); !errors.Is(err, ErrUnknownName) {
		t.Errorf("unknown lookup: %v", err)
	}
	if len(s.symbols) != 2 || s.symbols["a"] != a || s.symbols["b"] != b || a.Base >= b.Base {
		t.Errorf("globals a=%+v b=%+v registered as %+v, want a below b", a, b, s.symbols)
	}
}

func TestSealStopsGlobals(t *testing.T) {
	s := newSpace4K(t, units.MB)
	s.Seal()
	if _, err := s.RegisterGlobal("late", 8); !errors.Is(err, ErrSealed) {
		t.Errorf("want ErrSealed, got %v", err)
	}
	// Dynamic allocation still works after seal.
	if _, err := s.Malloc(64); err != nil {
		t.Errorf("Malloc after seal: %v", err)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	s := newSpace4K(t, units.MB)
	if _, err := s.Malloc(2 * units.MB); !errors.Is(err, ErrNoSpace) {
		t.Errorf("want ErrNoSpace, got %v", err)
	}
}

func TestAllocatorFreeReuseCoalesce(t *testing.T) {
	a := NewAllocator(0, 64*units.KB)
	p1, _ := a.Alloc(4096)
	p2, _ := a.Alloc(4096)
	p3, _ := a.Alloc(4096)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	// p1+p2 coalesced: an 8KB block fits where two 4KB holes were.
	big, err := a.Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	if big != p1 {
		t.Errorf("coalesced alloc at %#x, want %#x", big, p1)
	}
	_ = p3
	if err := a.Free(0xdead000); !errors.Is(err, ErrBadFree) {
		t.Errorf("bad free: %v", err)
	}
	if err := a.Free(p3); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p3); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free: %v", err)
	}
}

// Property: live allocations never overlap and stay inside the arena.
func TestAllocatorNoOverlapProperty(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
	}
	f := func(ops []op) bool {
		a := NewAllocator(0x1000000, 8*units.MB)
		type block struct {
			base units.Addr
			size int64
		}
		var live []block
		for _, o := range ops {
			if o.Alloc || len(live) == 0 {
				sz := int64(o.Size)%65536 + 1
				base, err := a.Alloc(sz)
				if err != nil {
					continue
				}
				aligned := units.AlignUp(sz, 4096)
				for _, b := range live {
					if base < b.base+units.Addr(b.size) && b.base < base+units.Addr(aligned) {
						return false // overlap
					}
				}
				if base < 0x1000000 || base+units.Addr(aligned) > 0x1000000+units.Addr(8*units.MB) {
					return false // escaped arena
				}
				live = append(live, block{base, aligned})
			} else {
				i := int(o.Size) % len(live)
				if err := a.Free(live[i].base); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUsedBytesAccounting(t *testing.T) {
	s := newSpace4K(t, units.MB)
	if s.UsedBytes() != 0 {
		t.Error("fresh space reports usage")
	}
	addr, _ := s.Malloc(100) // rounds to 4096
	if s.UsedBytes() != 4096 {
		t.Errorf("UsedBytes = %d", s.UsedBytes())
	}
	_ = s.Free(addr)
	if s.UsedBytes() != 0 {
		t.Errorf("UsedBytes after free = %d", s.UsedBytes())
	}
}
