package machine

import (
	"testing"

	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

// walks returns the total page-walk count, the observable that tells whether
// a queued shootdown has actually been applied (the re-touch must walk).
func walks(c *Context) uint64 {
	return c.Ctr.DTLBWalks4K + c.Ctr.DTLBWalks2M
}

// TestDrainWindowObservationEquivalence pins the windowed-drain contract
// promised by drainWindow's doc comment: a shootdown pending when a
// committed engine is entered is drained before element 0 — exactly where
// the per-element reference drains it — so the two engines stay
// byte-identical; and on a quiescent stream (nothing queued) neither engine
// drains anything, so the window polls are free of observable effect.
//
// A zero-stride range touches one line over and over, so every element
// after the first is a bulk-accounted L1 hit in rangeBulk and a probe in
// the reference: any drain the window polls added would show as a walk.
func TestDrainWindowObservationEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			const n = 200 // spans several drain windows (drainWindow = 64)
			base := units.Addr(0)

			t.Run("pending-at-entry", func(t *testing.T) {
				a, s := cfg.mk(t), cfg.mk(t)
				// Warm the translation for base so the shootdown has an
				// entry to kill.
				a.Load(base)
				s.AccessScalarRef(base, false)
				if a.Ctr != s.Ctr {
					t.Fatalf("warmup diverged:\ncommitted: %+v\nreference: %+v", a.Ctr, s.Ctr)
				}
				preA, preS := walks(a), walks(s)
				a.InvalidatePage(base, cfg.ps)
				s.InvalidatePage(base, cfg.ps)
				a.AccessRange(base, n, 0, false) // zero stride: committed scalar engine
				s.AccessRangeScalar(base, n, 0, false)
				if a.Ctr != s.Ctr {
					t.Errorf("drain points observable:\ncommitted: %+v\nreference: %+v", a.Ctr, s.Ctr)
				}
				// The drain must have landed before element 0: the first
				// touch re-walks, the remaining n-1 do not.
				if got := walks(a) - preA; got != 1 {
					t.Errorf("committed engine: walks after pending shootdown = %d, want 1", got)
				}
				if got := walks(s) - preS; got != 1 {
					t.Errorf("reference engine: walks after pending shootdown = %d, want 1", got)
				}
			})

			t.Run("quiescent", func(t *testing.T) {
				a, s := cfg.mk(t), cfg.mk(t)
				a.Load(base)
				s.AccessScalarRef(base, false)
				preA, preS := walks(a), walks(s)
				a.AccessRange(base, n, 0, false)
				s.AccessRangeScalar(base, n, 0, false)
				if a.Ctr != s.Ctr {
					t.Errorf("quiescent streams diverged:\ncommitted: %+v\nreference: %+v", a.Ctr, s.Ctr)
				}
				// Nothing queued: the window polls must drain nothing.
				if got := walks(a) - preA; got != 0 {
					t.Errorf("committed engine walked %d times on a quiescent warm page", got)
				}
				if got := walks(s) - preS; got != 0 {
					t.Errorf("reference engine walked %d times on a quiescent warm page", got)
				}
			})

			t.Run("full-flush-gather", func(t *testing.T) {
				// Every primed page shot down at once (a whole-chunk
				// shootdown, the widest a THP promotion issues) drains
				// identically in both engines.
				a, s := cfg.mk(t), cfg.mk(t)
				idx := make([]int64, 160)
				for j := range idx {
					idx[j] = int64((j * 37) % 2048)
				}
				a.GatherRange(base, 8, idx)
				s.GatherRangeScalar(base, 8, idx)
				shootChunk(a, base)
				shootChunk(s, base)
				a.GatherRange(base, 8, idx)
				s.GatherRangeScalar(base, 8, idx)
				if a.Ctr != s.Ctr {
					t.Errorf("full shootdown drain diverged:\ncommitted: %+v\nreference: %+v", a.Ctr, s.Ctr)
				}
			})
		})
	}
}

// fuzzWorld is one side of the fuzz comparison: a context plus its page
// table, so the op stream can degrade mappings the way thp.Manager.Demote
// does (unmap the 2MB chunk, shoot it down, re-map the same frames as 4KB
// pages).
type fuzzWorld struct {
	c  *Context
	pt *pagetable.Table
}

func mkFuzzWorld(t testing.TB, ps units.PageSize) fuzzWorld {
	pt := pagetable.New()
	mapRange(t, pt, 0, 4*units.MB, ps)
	return freshWorld(t, pt, ps)
}

// freshWorld gives pt a freshly configured one-context Opteron machine.
func freshWorld(t testing.TB, pt *pagetable.Table, ps units.PageSize) fuzzWorld {
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, err := m.Configure(1)
	if err != nil {
		t.Fatal(err)
	}
	ctxs[0].SetPageHint(ps)
	return fuzzWorld{c: ctxs[0], pt: pt}
}

// demandCfg is a one-context Opteron that maps nothing up front:
// demandPager maps each 4 KB page on its first touch, so every engine runs
// with a fault handler installed.
var demandCfg = equivCfg{model: Opteron270(), threads: 1, ps: units.Size4K, demand: true}

func mkDemandWorld(t testing.TB) fuzzWorld {
	c := demandCfg.mk(t)
	return fuzzWorld{c: c, pt: c.PageTable()}
}

// demoteChunk mirrors thp.Manager.Demote's degradation recipe on one world:
// unmap the 2MB chunk, queue the shootdown, and re-map the same physical
// frames as 512 4KB pages. Reports whether the chunk was actually demoted
// (false when it is already 4KB-mapped, so callers stay in lockstep).
func (w fuzzWorld) demoteChunk(t testing.TB, chunk int) bool {
	chunkVA := units.Addr(int64(chunk) * units.Size2M.Bytes())
	if _, err := w.pt.Unmap(chunkVA, units.Size2M); err != nil {
		return false
	}
	w.c.InvalidatePage(chunkVA, units.Size2M)
	for pi := 0; pi < 512; pi++ {
		pageVA := chunkVA + units.Addr(int64(pi)*units.PageSize4K)
		// Same frame numbering mapRange used for the 2MB chunk.
		pfn := uint64(1<<20) + uint64(int64(chunkVA)/units.PageSize4K) + uint64(pi)
		if err := w.pt.Map(pageVA, units.Size4K, pfn, pagetable.ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	return true
}

// FuzzScalarFastPath drives random interleavings of scalar loads/stores,
// ranges and gathers — with page and whole-chunk TLB shootdowns and 2MB→4KB
// page degradation injected between operations — through the committed engines
// (page segments, line runs, windowed drain polls) and the pristine
// per-element reference engines, and requires byte-identical counters after
// every single operation.
func FuzzScalarFastPath(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 8, 0, 0, 1, 255, 17})
	f.Add([]byte{7, 0, 0, 2, 9, 3, 5, 100, 4, 8, 1, 1, 0, 200, 77})
	f.Add([]byte{8, 1, 0, 8, 0, 0, 3, 50, 50, 6, 4, 0, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		// Byte 0 picks the world: 4KB or 2MB pages mapped up front (2MB
		// gives the degradation op something to demote), or demand-paged
		// 4KB pages mapped by a fault handler on first touch.
		var com, ref fuzzWorld // committed engines, per-element reference
		switch data[0] % 3 {
		case 0:
			com, ref = mkFuzzWorld(t, units.Size4K), mkFuzzWorld(t, units.Size4K)
		case 1:
			com, ref = mkFuzzWorld(t, units.Size2M), mkFuzzWorld(t, units.Size2M)
		default:
			com, ref = mkDemandWorld(t), mkDemandWorld(t)
		}

		const span = 4 * units.MB
		for i := 1; i+2 < len(data); i += 3 {
			op, a1, a2 := data[i], int64(data[i+1]), int64(data[i+2])
			va := units.Addr((a1<<12 | a2<<5 | a1*13) % span)
			switch op % 9 {
			case 0:
				com.c.Load(va)
				ref.c.AccessScalarRef(va, false)
			case 1:
				com.c.Store(va)
				ref.c.AccessScalarRef(va, true)
			case 2, 3:
				count := int(a1)%120 + 1
				stride := a2%200 + 1
				if int64(va)+int64(count)*stride >= span {
					continue
				}
				write := op%9 == 3
				com.c.AccessRange(va, count, stride, write)
				ref.c.AccessRangeScalar(va, count, stride, write)
			case 4:
				// Zero stride: one line run per drain window.
				count := int(a1)%150 + 1
				com.c.AccessRange(va, count, 0, a2&1 == 1)
				ref.c.AccessRangeScalar(va, count, 0, a2&1 == 1)
			case 5:
				n := int(a1)%60 + 1
				idx := make([]int64, n)
				bound := (span - int64(va)) / 8
				if bound <= 0 {
					continue
				}
				for j := range idx {
					idx[j] = (a2*31 + int64(j)*(a1+7)) % bound
				}
				com.c.GatherRange(va, 8, idx)
				ref.c.GatherRangeScalar(va, 8, idx)
			case 6:
				page := va &^ units.Addr(units.PageSize4K-1)
				size := units.Size4K
				if a2&1 == 1 {
					size = units.Size2M
					page = va &^ units.Addr(units.Size2M.Bytes()-1)
				}
				com.c.InvalidatePage(page, size)
				ref.c.InvalidatePage(page, size)
			case 7:
				shootChunk(com.c, va)
				shootChunk(ref.c, va)
			case 8:
				chunk := int(a1) % 2
				dc := com.demoteChunk(t, chunk)
				dr := ref.demoteChunk(t, chunk)
				if dc != dr {
					t.Fatalf("op %d: demote lockstep broken: committed=%v reference=%v", i, dc, dr)
				}
			}
			if com.c.Ctr != ref.c.Ctr {
				t.Fatalf("op %d (%d): counters diverged:\ncommitted: %+v\nreference: %+v",
					i, op%9, com.c.Ctr, ref.c.Ctr)
			}
		}
	})
}

// TestFaultShootdownDrainsAtWindow pins where a shootdown that a fault
// handler queues on its own context lands: the handler maps the one page of
// a 512-element, stride-8 range (or gather) on its first touch and queues a
// shootdown of it, so the page must be walked twice — once at the fault, and
// again where the next drain poll applies the shootdown. The reference
// polls every element; the committed engines poll every drainWindow
// elements from the call's start, so their re-walk lands at element 64. A
// rule that polled only at page-segment starts would never re-walk inside
// the page.
func TestFaultShootdownDrainsAtWindow(t *testing.T) {
	idx := make([]int64, 512)
	for j := range idx {
		idx[j] = int64(j)
	}
	ops := []struct {
		name     string
		com, ref func(c *Context)
	}{
		{"range",
			func(c *Context) { c.AccessRange(0, len(idx), 8, false) },
			func(c *Context) { c.AccessRangeScalar(0, len(idx), 8, false) }},
		{"gather",
			func(c *Context) { c.GatherRange(0, 8, idx) },
			func(c *Context) { c.GatherRangeScalar(0, 8, idx) }},
	}
	run := func(op func(c *Context)) *Context {
		c := demandCfg.mk(t)
		pager := c.OnFault
		c.OnFault = func(va units.Addr, write bool) error {
			if err := pager(va, write); err != nil {
				return err
			}
			c.InvalidatePage(va&^units.Addr(units.PageSize4K-1), units.Size4K)
			return nil
		}
		op(c)
		return c
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			com, ref := run(op.com), run(op.ref)
			for _, c := range []*Context{com, ref} {
				if got := walks(c); got != 2 {
					t.Errorf("walks = %d, want 2 (the fault's walk and the re-walk after the drain)", got)
				}
				if c.Ctr.SoftFaults != 1 {
					t.Errorf("soft faults = %d, want 1", c.Ctr.SoftFaults)
				}
			}
			if com.Ctr != ref.Ctr {
				t.Errorf("counters diverge:\ncommitted: %+v\nreference: %+v", com.Ctr, ref.Ctr)
			}
		})
	}
}

// TestFaultShootdownNotPolledAtPageStarts pins the "nowhere else" half of
// the drain rule. Pages 1–20 are mapped and DTLB-resident; an 80-element
// range (or gather) with elements 1 KB apart starts on unmapped page 0,
// whose fault handler maps it and shoots down page 1. Page 1's elements
// (1–4) come before the first window boundary, so the committed engines
// translate page 1 from its still-resident entry and apply the shootdown at
// element 64, after the range has left the page: one walk, page 0's. The
// reference, which polls every element, re-walks page 1, and so would a
// poll at page 1's segment start. The mailbox contract allows both; the
// committed engines keep the window rule, which is where the drains of the
// per-element engines for fault-handler contexts always landed.
func TestFaultShootdownNotPolledAtPageStarts(t *testing.T) {
	const n, stride = 80, 1024
	base := units.Addr(units.PageSize4K - stride)
	idx := make([]int64, n)
	for j := range idx {
		idx[j] = int64(j) * stride / 8
	}
	for _, op := range []struct {
		name     string
		com, ref func(c *Context)
	}{
		{"range",
			func(c *Context) { c.AccessRange(base, n, stride, false) },
			func(c *Context) { c.AccessRangeScalar(base, n, stride, false) }},
		{"gather",
			func(c *Context) { c.GatherRange(base, 8, idx) },
			func(c *Context) { c.GatherRangeScalar(base, 8, idx) }},
	} {
		t.Run(op.name, func(t *testing.T) {
			for _, side := range []struct {
				name string
				run  func(c *Context)
				want uint64
			}{{"committed", op.com, 1}, {"reference", op.ref, 2}} {
				c := demandCfg.mk(t)
				c.AccessRange(units.Addr(units.PageSize4K), 20, units.PageSize4K, false) // map and warm pages 1–20
				pager := c.OnFault
				c.OnFault = func(va units.Addr, write bool) error {
					if err := pager(va, write); err != nil {
						return err
					}
					c.InvalidatePage(units.Addr(units.PageSize4K), units.Size4K)
					return nil
				}
				preWalks, preFaults := walks(c), c.Ctr.SoftFaults
				side.run(c)
				if got := walks(c) - preWalks; got != side.want {
					t.Errorf("%s: walks = %d, want %d", side.name, got, side.want)
				}
				if got := c.Ctr.SoftFaults - preFaults; got != 1 {
					t.Errorf("%s: soft faults = %d, want 1", side.name, got)
				}
			}
		})
	}
}
