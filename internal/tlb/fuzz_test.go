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
			write := op&0x80 != 0
			switch op % 5 {
			case 0, 1, 2:
				if h.Access(vpn, size, write) == Miss {
					h.Fill(vpn, size, write)
					if h.Access(vpn, size, write) == Miss {
						t.Fatalf("fill(%d,%v,w=%v) did not stick", vpn, size, write)
					}
				}
			case 3:
				h.Invalidate(vpn, size)
				// A read after shootdown must miss (no stale entry).
				if h.Access(vpn, size, false) != Miss {
					t.Fatalf("stale entry for %d/%v after shootdown", vpn, size)
				}
				h.Fill(vpn, size, false)
			case 4:
				h.Flush()
			}
		}
	})
}
