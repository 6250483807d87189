package tlb

import (
	"testing"

	"hugeomp/internal/units"
)

// FuzzHierarchy drives a two-level TLB stack with an encoded op stream and
// checks structural invariants after every step: capacity bounds, the
// insert-then-hit guarantee, and shootdown completeness.
func FuzzHierarchy(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 128, 128, 255})
	f.Add([]byte{42})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := mustHierarchy(t, Spec{
			L1: LevelSpec{
				E4K: Config{Entries: 8, Ways: 2},
				E2M: Config{Entries: 4},
			},
			L2: LevelSpec{E4K: Config{Entries: 16, Ways: 4}},
		})
		for _, op := range ops {
			vpn := uint64(op % 64)
			size := units.Size4K
			if op&0x40 != 0 {
				size = units.Size2M
			}
			switch op % 5 {
			case 0, 1, 2:
				if h.Access(vpn, size) == Miss {
					h.Fill(vpn, size)
					if h.Access(vpn, size) == Miss {
						t.Fatalf("fill(%d,%v) did not stick", vpn, size)
					}
				}
			case 3:
				h.Invalidate(vpn, size)
				// A probe after shootdown must miss (no stale entry).
				if h.Access(vpn, size) != Miss {
					t.Fatalf("stale entry for %d/%v after shootdown", vpn, size)
				}
				h.Fill(vpn, size)
			case 4:
				h.Flush()
			}
		}
	})
}
