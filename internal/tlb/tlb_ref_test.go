package tlb

// refTLB is the pre-rework timestamp-LRU implementation, kept verbatim as a
// test oracle: the linked-list recency scheme must produce byte-identical
// hit/miss/eviction outcomes for every operation sequence.

type refWay struct {
	vpn   uint64
	stamp uint64
	valid bool
}

type refTLB struct {
	ways     []refWay
	assoc    int
	setMask  uint64
	tick     uint64
	mruIndex []int
}

func newRefTLB(cfg Config) *refTLB {
	if cfg.Entries == 0 {
		return nil
	}
	assoc := cfg.Ways
	if assoc <= 0 || assoc > cfg.Entries {
		assoc = cfg.Entries
	}
	sets := cfg.Entries / assoc
	return &refTLB{
		ways:     make([]refWay, cfg.Entries),
		assoc:    assoc,
		setMask:  uint64(sets - 1),
		mruIndex: make([]int, sets),
	}
}

func (t *refTLB) lookupEntry(vpn uint64) (Entry, bool) {
	if t == nil {
		return Entry{}, false
	}
	set := vpn & t.setMask
	base := int(set) * t.assoc
	if m := t.mruIndex[set]; t.ways[base+m].valid && t.ways[base+m].vpn == vpn {
		t.tick++
		t.ways[base+m].stamp = t.tick
		return Entry{VPN: vpn}, true
	}
	for i := 0; i < t.assoc; i++ {
		w := &t.ways[base+i]
		if w.valid && w.vpn == vpn {
			t.tick++
			w.stamp = t.tick
			t.mruIndex[set] = i
			return Entry{VPN: vpn}, true
		}
	}
	return Entry{}, false
}

func (t *refTLB) insert(vpn uint64) (evicted Entry, wasEvicted bool) {
	if t == nil {
		return Entry{}, false
	}
	set := vpn & t.setMask
	base := int(set) * t.assoc
	inPlace, empty, lru := -1, -1, -1
	oldest := ^uint64(0)
	for i := 0; i < t.assoc; i++ {
		w := &t.ways[base+i]
		switch {
		case w.valid && w.vpn == vpn:
			inPlace = i
		case !w.valid:
			if empty < 0 {
				empty = i
			}
		case w.stamp < oldest:
			oldest, lru = w.stamp, i
		}
	}
	victim := inPlace
	if victim < 0 {
		victim = empty
	}
	if victim < 0 {
		victim = lru
	}
	w := &t.ways[base+victim]
	wasEvicted = inPlace < 0 && w.valid
	evicted = Entry{VPN: w.vpn}
	t.tick++
	*w = refWay{vpn: vpn, stamp: t.tick, valid: true}
	t.mruIndex[set] = victim
	return evicted, wasEvicted
}

func (t *refTLB) invalidate(vpn uint64) bool {
	if t == nil {
		return false
	}
	set := vpn & t.setMask
	base := int(set) * t.assoc
	for i := 0; i < t.assoc; i++ {
		w := &t.ways[base+i]
		if w.valid && w.vpn == vpn {
			w.valid = false
			return true
		}
	}
	return false
}

func (t *refTLB) live() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.ways {
		if t.ways[i].valid {
			n++
		}
	}
	return n
}
