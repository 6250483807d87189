package machine

import (
	"testing"

	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

// applyForkOp decodes and applies one fuzz op to world w through the
// committed engines — the op set of FuzzScalarFastPath plus a page-fault op
// that maps a fresh page after the fork point (so post-fork mutations write
// the fork's own copy of the page table) and an abort marker (op%11 ==
// 10) that is a no-op here: abandoning a run touches no machine state, and
// FuzzForkEquivalence decodes it at the driver level to abandon the fork
// mid-stream. The return value is the demote outcome (always true for other
// ops) so callers can require worlds to stay in lockstep.
func applyForkOp(t testing.TB, w fuzzWorld, op byte, a1, a2 int64) bool {
	const span = 4 * units.MB
	va := units.Addr((a1<<12 | a2<<5 | a1*13) % span)
	switch op % 11 {
	case 0:
		w.c.Load(va)
	case 1:
		w.c.Store(va)
	case 2, 3:
		count := int(a1)%120 + 1
		stride := a2%200 + 1
		if int64(va)+int64(count)*stride >= span {
			return true
		}
		w.c.AccessRange(va, count, stride, op%11 == 3)
	case 4:
		w.c.AccessRange(va, int(a1)%150+1, 0, a2&1 == 1)
	case 5:
		n := int(a1)%60 + 1
		bound := (span - int64(va)) / 8
		if bound <= 0 {
			return true
		}
		idx := make([]int64, n)
		for j := range idx {
			idx[j] = (a2*31 + int64(j)*(a1+7)) % bound
		}
		w.c.GatherRange(va, 8, idx)
	case 6:
		page := va &^ units.Addr(units.PageSize4K-1)
		size := units.Size4K
		if a2&1 == 1 {
			size = units.Size2M
			page = va &^ units.Addr(units.Size2M.Bytes()-1)
		}
		w.c.InvalidatePage(page, size)
	case 7:
		shootChunk(w.c, va)
	case 8:
		return w.demoteChunk(t, int(a1)%2)
	case 9:
		// Page-fault analog: map a fresh 4KB page above the pre-mapped span
		// and touch it. Every world maps the same (va, pfn), so a re-map of
		// an already-faulted slot fails identically everywhere and the load
		// still stays in lockstep.
		pageVA := units.Addr(span) + units.Addr((a1&63)*units.PageSize4K)
		pfn := uint64(2<<20) + uint64(int64(pageVA)/units.PageSize4K)
		_ = w.pt.Map(pageVA, units.Size4K, pfn, pagetable.ProtRW)
		w.c.Load(pageVA)
	case 10:
		// Abort marker — no machine state changes; see FuzzForkEquivalence.
	}
	return true
}

// FuzzForkEquivalence is the correctness bar of the page-table fork that
// every warm run starts from. It forks the way npb.Warm does: the fork is
// taken before the runtime exists, and NewRT then configures cold hardware
// on the forked table. After any warmup prefix of random operations, the
// parent's table is frozen with Table.Fork, and a fork of the frozen table
// with a freshly configured context must continue byte-identically —
// every counter after every op — to a control that never forked its table
// and got a fresh context at the same op. Freezing must leave the parent
// untouched, which a second control that neither forks nor swaps contexts
// checks. The op stream mixes scalar loads/stores, ranges, gathers, page
// and whole-chunk shootdowns, 2MB→4KB demotions and page faults (post-fork,
// both write the fork's own copy of the page table), and an abort op
// (op%11 == 10): the first abort after the fork point abandons the forked
// world mid-stream — exactly what a cancelled service request does — then
// forks a *sibling* from the same frozen table, replays the post-fork
// stream, and requires the sibling to land on the control's counters
// byte-for-byte before continuing in lockstep. An abandoned fork must never
// have leaked into the table it came from.
//
// Byte 0 picks the page-size policy, byte 1 the fork point; each op is 3
// bytes (op, a1, a2) as in FuzzScalarFastPath.
func FuzzForkEquivalence(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 1, 8, 0, 0, 0, 30, 7, 2, 9, 3, 9, 40, 1})
	f.Add([]byte{1, 0, 8, 1, 0, 5, 17, 80, 6, 4, 1, 7, 0, 0})
	f.Add([]byte{0, 3, 9, 5, 0, 9, 5, 0, 3, 50, 50, 1, 255, 17, 8, 0, 0})
	f.Add([]byte{1, 1, 0, 1, 2, 9, 3, 9, 10, 0, 0, 3, 60, 5, 8, 0, 0, 1, 10, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		ps := units.Size4K
		if data[0]&1 == 1 {
			ps = units.Size2M
		}
		nops := (len(data) - 2) / 3
		split := int(data[1]) % (nops + 1)

		orig := mkFuzzWorld(t, ps)  // parent: its table frozen mid-stream
		ctrlP := mkFuzzWorld(t, ps) // the parent's control: never forked
		ctrl := mkFuzzWorld(t, ps)  // the fork's control: fresh context at the fork point
		var frozen *pagetable.Table
		var forked fuzzWorld
		haveFork := false
		abortedOnce := false
		var replay [][3]byte // ops applied to the fork since it was taken

		opIdx := 0
		for i := 2; i+2 < len(data); i += 3 {
			if opIdx == split && !haveFork {
				frozen = orig.pt.Fork()
				forked = freshWorld(t, frozen.Fork(), ps)
				ctrl = freshWorld(t, ctrl.pt, ps)
				haveFork = true
			}
			op, a1, a2 := data[i], int64(data[i+1]), int64(data[i+2])
			if op%11 == 10 {
				// Abort: abandon the fork exactly here, mid-stream, and prove
				// the frozen table is unperturbed — a fresh sibling replaying
				// the same post-fork stream must land on the control's
				// counters. The sibling then takes over the lockstep.
				if haveFork && !abortedOnce {
					abortedOnce = true
					sib := freshWorld(t, frozen.Fork(), ps)
					for _, r := range replay {
						applyForkOp(t, sib, r[0], int64(r[1]), int64(r[2]))
					}
					if sib.c.Ctr != ctrl.c.Ctr {
						t.Fatalf("abort at op %d: sibling fork replay diverged — the abandoned fork leaked into the frozen table:\nsibling: %+v\ncontrol: %+v",
							opIdx, sib.c.Ctr, ctrl.c.Ctr)
					}
					forked = sib
				}
				opIdx++
				continue // the abort marker mutates no world
			}
			dp := applyForkOp(t, ctrlP, op, a1, a2)
			if do := applyForkOp(t, orig, op, a1, a2); do != dp {
				t.Fatalf("op %d: parent demote lockstep broken", opIdx)
			}
			if haveFork {
				replay = append(replay, [3]byte{op, byte(a1), byte(a2)})
				dc := applyForkOp(t, ctrl, op, a1, a2)
				if df := applyForkOp(t, forked, op, a1, a2); df != dc {
					t.Fatalf("op %d: forked demote lockstep broken", opIdx)
				}
				if forked.c.Ctr != ctrl.c.Ctr {
					t.Fatalf("op %d (%d): forked run diverged from unforked run:\nforked: %+v\ncontrol: %+v",
						opIdx, op%11, forked.c.Ctr, ctrl.c.Ctr)
				}
			} else {
				applyForkOp(t, ctrl, op, a1, a2)
			}
			if orig.c.Ctr != ctrlP.c.Ctr {
				t.Fatalf("op %d (%d): forking perturbed the parent:\nparent: %+v\ncontrol: %+v",
					opIdx, op%11, orig.c.Ctr, ctrlP.c.Ctr)
			}
			opIdx++
		}
	})
}

// TestSnapshotForksIsolated: two forks of one frozen table never observe
// each other's writes. Each fork gets a fresh context and runs a different
// op stream, interleaved with the other's, and must stay byte-identical at
// every step to a control that ran the shared prefix on its own table, got
// a fresh context there, and then ran only its fork's stream — any
// cross-fork leak through the frozen page table would knock a fork off its
// control. The prefix faults in a page above the pre-mapped span, so that
// page's PTE frame exists at the fork and the other forks' later faults
// beside it must land in their own copies of it; at the end every page of
// each fork's table must translate exactly as its control's, which shows a
// leaked mapping that no access of the other fork touched.
func TestSnapshotForksIsolated(t *testing.T) {
	for _, ps := range []units.PageSize{units.Size4K, units.Size2M} {
		t.Run(ps.String(), func(t *testing.T) {
			parent := mkFuzzWorld(t, ps)
			ctrlA := mkFuzzWorld(t, ps)
			ctrlB := mkFuzzWorld(t, ps)

			// Shared warmup prefix on the parent and both controls.
			prefix := []byte{0, 3, 1, 2, 40, 9, 5, 17, 80, 0, 200, 7, 9, 4, 0}
			for i := 0; i+2 < len(prefix); i += 3 {
				for _, w := range []fuzzWorld{parent, ctrlA, ctrlB} {
					applyForkOp(t, w, prefix[i], int64(prefix[i+1]), int64(prefix[i+2]))
				}
			}

			frozen := parent.pt.Fork()
			wa := freshWorld(t, frozen.Fork(), ps)
			wb := freshWorld(t, frozen.Fork(), ps)
			ctrlA = freshWorld(t, ctrlA.pt, ps)
			ctrlB = freshWorld(t, ctrlB.pt, ps)

			// Divergent streams. A degrades chunk 0 and stores through it; B
			// gathers, faults in fresh pages and shoots down chunks — so if
			// A's unmap or B's map leaked through the frozen table, the other
			// fork's walk and miss counters would diverge from its control.
			streamA := []byte{8, 0, 0, 1, 10, 3, 3, 60, 5, 6, 0, 1, 0, 10, 3}
			streamB := []byte{5, 30, 9, 9, 7, 0, 7, 0, 0, 9, 8, 0, 5, 50, 3}
			for i := 0; i+2 < len(streamA) && i+2 < len(streamB); i += 3 {
				applyForkOp(t, wa, streamA[i], int64(streamA[i+1]), int64(streamA[i+2]))
				applyForkOp(t, ctrlA, streamA[i], int64(streamA[i+1]), int64(streamA[i+2]))
				applyForkOp(t, wb, streamB[i], int64(streamB[i+1]), int64(streamB[i+2]))
				applyForkOp(t, ctrlB, streamB[i], int64(streamB[i+1]), int64(streamB[i+2]))
				if wa.c.Ctr != ctrlA.c.Ctr {
					t.Fatalf("op %d: fork A observed fork B's writes:\nfork A: %+v\ncontrol: %+v",
						i/3, wa.c.Ctr, ctrlA.c.Ctr)
				}
				if wb.c.Ctr != ctrlB.c.Ctr {
					t.Fatalf("op %d: fork B observed fork A's writes:\nfork B: %+v\ncontrol: %+v",
						i/3, wb.c.Ctr, ctrlB.c.Ctr)
				}
			}
			sameMappings(t, "fork A", wa.pt, ctrlA.pt)
			sameMappings(t, "fork B", wb.pt, ctrlB.pt)
			sameMappings(t, "frozen table", frozen, parent.pt)
		})
	}
}

// sameMappings fails if any 4 KB page of the pre-mapped span, or of the 64
// pages above it that the page-fault op maps into, translates differently
// in got and want.
func sameMappings(t testing.TB, name string, got, want *pagetable.Table) {
	t.Helper()
	for va := units.Addr(0); va < units.Addr(4*units.MB+64*units.PageSize4K); va += units.Addr(units.PageSize4K) {
		g, gerr := got.Translate(va)
		w, werr := want.Translate(va)
		if (gerr == nil) != (werr == nil) || g != w {
			t.Fatalf("%s: va %#x translates to %+v (%v), want %+v (%v)", name, va, g, gerr, w, werr)
		}
	}
}
