// Corpus for the atomicfield analyzer: an annotated state word and state
// slice, CAS-published between goroutines.
package a

import "sync/atomic"

type line struct {
	state uint32 //simlint:atomic
	tag   uint64 // unannotated: plain access is fine
}

type table struct {
	states []uint32 //simlint:atomic
	tags   []uint64
}

// Every sync/atomic shape is sanctioned.
func atomics(l *line, t *table, i int) uint32 {
	s := atomic.LoadUint32(&l.state)
	atomic.StoreUint32(&l.state, 1)
	s += atomic.AddUint32(&t.states[i], 1)
	atomic.CompareAndSwapUint32(&l.state, 0, 1)
	atomic.SwapUint32(&t.states[i], 2)
	return s
}

// Header-only reads and length-only iteration never touch the elements.
func headers(t *table) int {
	n := len(t.states) + cap(t.states)
	for i := range t.states {
		n += i
	}
	for range t.states {
		n++
	}
	return n
}

// Keyed struct-literal initialisation happens before the value is
// published.
func build(n int) *table {
	return &table{states: make([]uint32, n), tags: make([]uint64, n)}
}

// Unannotated neighbours stay unrestricted.
func neighbours(l *line, t *table, i int) uint64 {
	l.tag = 7
	t.tags[i] = l.tag
	return t.tags[i]
}

// Plain reads and writes of annotated fields are the bug class.
func plainWrite(l *line) {
	l.state = 1 // want `plain access to state`
}

func plainRead(l *line) uint32 {
	return l.state // want `plain access to state`
}

func plainIndex(t *table, i int) uint32 {
	t.states[i] = 1    // want `plain access to states`
	return t.states[i] // want `plain access to states`
}

// A value-capturing range reads every element plainly.
func rangeValues(t *table) uint32 {
	var s uint32
	for _, v := range t.states { // want `plain access to states`
		s += v
	}
	return s
}

// Taking the address for anything but sync/atomic leaks the word to
// unchecked code.
func escape(l *line, f func(*uint32)) {
	f(&l.state) // want `plain access to state`
}

// The snapshot layer's forked-counter shape: a fork must copy a peer's
// atomic words via Load/Store pairs (shootdown flags), never by plain assignment — a struct copy of the containing
// value would smuggle the word across without a fence.
type forkedFlag struct {
	armed uint64 //simlint:atomic
	owner int
}

func forkFlag(src *forkedFlag) *forkedFlag {
	dst := &forkedFlag{owner: src.owner}
	atomic.StoreUint64(&dst.armed, atomic.LoadUint64(&src.armed))
	return dst
}

func forkFlagPlain(src *forkedFlag) *forkedFlag {
	return &forkedFlag{armed: src.armed, owner: src.owner} // want `plain access to armed`
}
