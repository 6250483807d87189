package tlb

import (
	"math/rand"
	"testing"
)

// driveEquiv runs one encoded op stream against both implementations and
// fails on the first observable divergence: lookup outcomes, eviction
// results, stats and live counts.
func driveEquiv(t *testing.T, cfg Config, ops []byte) {
	t.Helper()
	n := mustNew(t, cfg)
	r := newRefTLB(cfg)
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k], ops[k+1]
		vpn := uint64(arg % 37) // enough collisions to exercise every set
		switch op % 4 {
		case 0: // lookup
			nok := n.Lookup(vpn)
			if _, rok := r.lookupEntry(vpn); nok != rok {
				t.Fatalf("op %d: lookup(%d) = %v want %v", k, vpn, nok, rok)
			}
		case 1: // insert
			nev, nwas := n.Insert(vpn)
			rev, rwas := r.insert(vpn)
			if nwas != rwas || (nwas && nev != rev) {
				t.Fatalf("op %d: insert(%d) evicted %v,%v want %v,%v", k, vpn, nev, nwas, rev, rwas)
			}
		case 2: // invalidate
			if ni, ri := n.Invalidate(vpn), r.invalidate(vpn); ni != ri {
				t.Fatalf("op %d: invalidate(%d) = %v want %v", k, vpn, ni, ri)
			}
		case 3: // flush
			n.Flush()
			r.flush()
		}
		nh, nm := n.Stats()
		if nh != r.hits || nm != r.misses {
			t.Fatalf("op %d: stats %d/%d want %d/%d", k, nh, nm, r.hits, r.misses)
		}
		if n.Live() != r.live() {
			t.Fatalf("op %d: live %d want %d", k, n.Live(), r.live())
		}
	}
}

// TestLinkedLRUMatchesStampReference pins the linked-list recency scheme to
// the old timestamp implementation across random op streams and every
// geometry class the simulated processors use (fully associative, 2-way,
// 4-way, single-entry).
func TestLinkedLRUMatchesStampReference(t *testing.T) {
	cfgs := []Config{
		{Entries: 32},          // Opteron L1 DTLB: fully associative
		{Entries: 8},           // Opteron 2M class
		{Entries: 64, Ways: 4}, // Xeon-style set associative
		{Entries: 8, Ways: 2},
		{Entries: 1},
	}
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range cfgs {
		for trial := 0; trial < 50; trial++ {
			ops := make([]byte, 400)
			rng.Read(ops)
			driveEquiv(t, cfg, ops)
		}
	}
}

// FuzzLinkedLRUEquivalence is the fuzz-driven version of the same oracle.
func FuzzLinkedLRUEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 128, 5, 4, 5, 2, 5, 0, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		driveEquiv(t, Config{Entries: 8, Ways: 2}, ops)
		driveEquiv(t, Config{Entries: 16}, ops)
	})
}
