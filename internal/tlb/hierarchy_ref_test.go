package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"hugeomp/internal/units"
)

// refHierarchy is the hierarchy cascade that did not rely on the levels'
// exclusivity, kept as a test oracle: Access, Fill, demote and Invalidate
// verbatim as they stood, over refTLB, the timestamp-LRU reference. A
// promotion looks its entry up in L2 (refreshing its recency), then
// invalidates it with a second scan, every fill first searches for a
// resident copy, and demote handles an L2 that already held one.
type refHierarchy struct {
	l1 [units.NumPageSizes]*refTLB
	l2 [units.NumPageSizes]*refTLB

	filt     [units.NumPageSizes][]uint16
	filtMask [units.NumPageSizes]uint64
}

func newRefHierarchy(spec Spec) *refHierarchy {
	h := &refHierarchy{}
	h.l1[units.Size4K] = newRefTLB(spec.L1.E4K)
	h.l1[units.Size2M] = newRefTLB(spec.L1.E2M)
	h.l2[units.Size4K] = newRefTLB(spec.L2.E4K)
	h.l2[units.Size2M] = newRefTLB(spec.L2.E2M)
	for _, size := range [...]units.PageSize{units.Size4K, units.Size2M} {
		total := h.l1[size].entries() + h.l2[size].entries()
		if total == 0 {
			continue
		}
		slots := 16
		for slots < 8*total {
			slots <<= 1
		}
		h.filt[size] = make([]uint16, slots)
		h.filtMask[size] = uint64(slots - 1)
	}
	return h
}

func (t *refTLB) entries() int {
	if t == nil {
		return 0
	}
	return len(t.ways)
}

// Lookup, Invalidate and InsertEx give refTLB the method set the cascade
// below calls. InsertEx reports, as the TLB's did, whether the fill
// refreshed an already resident vpn in place.
func (t *refTLB) Lookup(vpn uint64) bool {
	_, ok := t.lookupEntry(vpn)
	return ok
}

func (t *refTLB) Invalidate(vpn uint64) bool { return t.invalidate(vpn) }

func (t *refTLB) InsertEx(vpn uint64) (evicted Entry, wasEvicted, inPlace bool) {
	if t == nil {
		return Entry{}, false, false
	}
	base := int(vpn&t.setMask) * t.assoc
	for _, w := range t.ways[base : base+t.assoc] {
		inPlace = inPlace || (w.valid && w.vpn == vpn)
	}
	evicted, wasEvicted = t.insert(vpn)
	return evicted, wasEvicted, inPlace
}

func (h *refHierarchy) unionAdd(size units.PageSize, vpn uint64) {
	if f := h.filt[size]; f != nil {
		f[vpn&h.filtMask[size]]++
	}
}

func (h *refHierarchy) unionDel(size units.PageSize, vpn uint64) {
	if f := h.filt[size]; f != nil {
		f[vpn&h.filtMask[size]]--
	}
}

func (h *refHierarchy) Access(vpn uint64, size units.PageSize) Outcome {
	if f := h.filt[size]; f != nil && f[vpn&h.filtMask[size]] == 0 {
		return Miss
	}
	if h.l1[size].Lookup(vpn) {
		return HitL1
	}
	if h.l2[size].Lookup(vpn) {
		h.l2[size].Invalidate(vpn)
		h.unionDel(size, vpn)
		ev, evOK, ip := h.l1[size].InsertEx(vpn)
		if !ip {
			h.unionAdd(size, vpn)
		}
		if evOK {
			h.demote(size, ev)
		}
		return HitL2
	}
	return Miss
}

func (h *refHierarchy) demote(size units.PageSize, ev Entry) {
	if h.l2[size] == nil {
		h.unionDel(size, ev.VPN)
		return
	}
	ev2, ev2OK, ip2 := h.l2[size].InsertEx(ev.VPN)
	if ip2 {
		h.unionDel(size, ev.VPN)
	}
	if ev2OK {
		h.unionDel(size, ev2.VPN)
	}
}

func (h *refHierarchy) Fill(vpn uint64, size units.PageSize) {
	ev, evOK, ip := h.l1[size].InsertEx(vpn)
	if !ip {
		h.unionAdd(size, vpn)
	}
	if evOK {
		h.demote(size, ev)
	}
}

func (h *refHierarchy) Invalidate(vpn uint64, size units.PageSize) {
	if h.l1[size].Invalidate(vpn) {
		h.unionDel(size, vpn)
	}
	if h.l2[size].Invalidate(vpn) {
		h.unionDel(size, vpn)
	}
}

// VisitEntries visits valid ways in Hierarchy.VisitEntries's order: per
// size class, L1 then L2, each in way-index order.
func (h *refHierarchy) VisitEntries(f func(level int, size units.PageSize, e Entry)) {
	for _, size := range [...]units.PageSize{units.Size4K, units.Size2M} {
		for level, t := range [...]*refTLB{h.l1[size], h.l2[size]} {
			if t == nil {
				continue
			}
			for _, w := range t.ways {
				if w.valid {
					f(level+1, size, Entry{VPN: w.vpn})
				}
			}
		}
	}
}

// residentEntry is one VisitEntries callback.
type residentEntry struct {
	level int
	size  units.PageSize
	vpn   uint64
}

// builtinTLBSpecs returns the DTLB and ITLB specs of the built-in models
// (machine.Opteron270, XeonHT and NiagaraT1; the machine package imports
// this one, so its models are restated here), each whole and as the
// Partition(2) and Partition(4) slices SMT siblings and sharers get.
func builtinTLBSpecs() []Spec {
	fa := func(n int) Config { return Config{Entries: n} }
	whole := []Spec{
		{Name: "opteron-itlb", L1: LevelSpec{E4K: fa(32), E2M: fa(8)}},
		{Name: "opteron-dtlb", L1: LevelSpec{E4K: fa(32), E2M: fa(8)},
			L2: LevelSpec{E4K: Config{Entries: 512, Ways: 4}}},
		{Name: "xeon-itlb", L1: LevelSpec{E4K: Config{Entries: 128, Ways: 4}, E2M: fa(16)}},
		{Name: "xeon-dtlb", L1: LevelSpec{E4K: Config{Entries: 64, Ways: 4}, E2M: fa(32)},
			L2: LevelSpec{E4K: Config{Entries: 128, Ways: 4}}},
		{Name: "niagara-itlb", L1: LevelSpec{E4K: fa(64), E2M: fa(8)}},
		{Name: "niagara-dtlb", L1: LevelSpec{E4K: fa(64), E2M: fa(8)}},
	}
	var specs []Spec
	for _, s := range whole {
		specs = append(specs, s, s.Partition(2), s.Partition(4))
	}
	return specs
}

// driveHierarchy runs one encoded op stream through a Hierarchy built from
// spec and through the reference, and fails at the first op whose outcome,
// or whose resident entries as VisitEntries lists them, differ. Each op is
// three bytes: a kind byte, whose top bit picks the 2 MB class, then a
// 16-bit VPN folded into a domain about twice the size class's capacity, so
// streams hit both levels, promote, demote and evict. The kind's low seven
// bits make 112 of 128 values an access (a fill follows a miss, as in the
// machine's translation), 15 a single shootdown and one a full shootdown
// of every resident page. It returns how many accesses had each Outcome.
func driveHierarchy(t *testing.T, spec Spec, ops []byte) (outcomes [Miss + 1]int) {
	t.Helper()
	h := mustHierarchy(t, spec)
	ref := newRefHierarchy(spec)
	var domain [units.NumPageSizes]uint64
	domain[units.Size4K] = uint64(2*(spec.L1.E4K.Entries+spec.L2.E4K.Entries) + 8)
	domain[units.Size2M] = uint64(2*(spec.L1.E2M.Entries+spec.L2.E2M.Entries) + 8)
	var got, want []residentEntry
	for k := 0; k+2 < len(ops); k += 3 {
		size := units.Size4K
		if ops[k]&0x80 != 0 {
			size = units.Size2M
		}
		vpn := (uint64(ops[k+1])<<8 | uint64(ops[k+2])) % domain[size]
		switch kind := ops[k] & 0x7f; {
		case kind < 0x70:
			o, ro := h.Access(vpn, size), ref.Access(vpn, size)
			if o != ro {
				t.Fatalf("%s op %d: Access(%d, %v) = %v, reference %v", spec.Name, k/3, vpn, size, o, ro)
			}
			outcomes[o]++
			if o == Miss {
				h.Fill(vpn, size)
				ref.Fill(vpn, size)
			}
		case kind < 0x7f:
			h.Invalidate(vpn, size)
			ref.Invalidate(vpn, size)
		default:
			// want holds the resident entries after the previous op, which
			// matched the hierarchy's.
			for _, e := range want {
				h.Invalidate(e.vpn, e.size)
				ref.Invalidate(e.vpn, e.size)
			}
		}
		got, want = got[:0], want[:0]
		h.VisitEntries(func(level int, size units.PageSize, e Entry) {
			got = append(got, residentEntry{level, size, e.VPN})
		})
		ref.VisitEntries(func(level int, size units.PageSize, e Entry) {
			want = append(want, residentEntry{level, size, e.VPN})
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s op %d: resident entries\n%v\nreference\n%v", spec.Name, k/3, got, want)
		}
	}
	return outcomes
}

// hierarchyOps returns a seeded op stream of n ops with page locality: most
// accesses step a few pages from the previous one, the rest jump anywhere,
// and about one op in sixteen is a single shootdown (one in 256 a full one).
func hierarchyOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, 0, 3*n)
	vpn := 0
	for i := 0; i < n; i++ {
		kind := byte(rng.Intn(0x70))
		switch r := rng.Intn(256); {
		case r == 0:
			kind = 0x7f
		case r < 16:
			kind = 0x70 + byte(rng.Intn(15))
		}
		if rng.Intn(4) == 0 {
			vpn = rng.Intn(1 << 16)
		} else {
			vpn = (vpn + rng.Intn(9) - 2) & (1<<16 - 1)
		}
		if rng.Intn(4) == 0 {
			kind |= 0x80
		}
		ops = append(ops, kind, byte(vpn>>8), byte(vpn))
	}
	return ops
}

// TestHierarchyMatchesReference holds the exclusive hierarchy to the
// reference cascade on seeded streams over every built-in TLB stack and its
// SMT slices: every outcome and every resident entry after every op. The
// streams must reach every outcome the stack has, promotions included.
func TestHierarchyMatchesReference(t *testing.T) {
	for _, spec := range builtinTLBSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(spec.Name)) * 7919))
			var total [Miss + 1]int
			for trial := 0; trial < 4; trial++ {
				o := driveHierarchy(t, spec, hierarchyOps(rng, 3000))
				for i := range o {
					total[i] += o[i]
				}
			}
			if total[HitL1] == 0 || total[Miss] == 0 || (spec.L2.E4K.Entries > 0) != (total[HitL2] > 0) {
				t.Errorf("streams reached outcomes L1 %d, L2 %d, miss %d", total[HitL1], total[HitL2], total[Miss])
			}
		})
	}
}

// FuzzHierarchyReference is the fuzz-driven version of the same oracle: an
// input's first byte picks the built-in stack, the rest is its op stream.
func FuzzHierarchyReference(f *testing.F) {
	specs := builtinTLBSpecs()
	for i, spec := range specs {
		if spec.L2.E4K.Entries > 0 {
			f.Add(append([]byte{byte(i)}, hierarchyOps(rand.New(rand.NewSource(int64(i))), 300)...))
		}
	}
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0x70, 0, 1, 0x7f, 0, 0, 0x80, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 0 {
			driveHierarchy(t, specs[int(ops[0])%len(specs)], ops[1:])
		}
	})
}
