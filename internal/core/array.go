package core

import (
	"fmt"

	"hugeomp/internal/machine"
	"hugeomp/internal/units"
)

// Array is a shared global array of float64: real values live in Data (so
// kernels compute real results), while Base anchors the array in the
// simulated address space (so every access exercises the TLB/cache model).
type Array struct {
	Name string
	Base units.Addr
	Data []float64
}

// NewArray registers a float64 global of n elements under the page policy.
func (s *System) NewArray(name string, n int) (*Array, error) {
	sym, err := s.Global(name, int64(n)*8)
	if err != nil {
		return nil, err
	}
	return &Array{Name: name, Base: sym.Base, Data: make([]float64, n)}, nil
}

// MustArray is NewArray that panics on failure (setup-time convenience).
func (s *System) MustArray(name string, n int) *Array {
	a, err := s.NewArray(name, n)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return a
}

// Len returns the element count.
func (a *Array) Len() int { return len(a.Data) }

// Addr returns the simulated address of element i.
func (a *Array) Addr(i int) units.Addr { return a.Base + units.Addr(i*8) }

// Load reads element i through the simulated memory system.
func (a *Array) Load(c *machine.Context, i int) float64 {
	c.Load(a.Addr(i))
	return a.Data[i]
}

// Store writes element i through the simulated memory system.
func (a *Array) Store(c *machine.Context, i int, v float64) {
	c.Store(a.Addr(i))
	a.Data[i] = v
}

// LoadRange simulates reading elements [lo, hi) sequentially (unit stride).
// The caller computes on a.Data[lo:hi] directly.
func (a *Array) LoadRange(c *machine.Context, lo, hi int) {
	c.AccessRange(a.Addr(lo), hi-lo, 8, false)
}

// StoreRange simulates writing elements [lo, hi) sequentially.
func (a *Array) StoreRange(c *machine.Context, lo, hi int) {
	c.AccessRange(a.Addr(lo), hi-lo, 8, true)
}

// LoadStride simulates count reads starting at element start with a stride
// of strideElems elements.
func (a *Array) LoadStride(c *machine.Context, start, count, strideElems int) {
	c.AccessRange(a.Addr(start), count, int64(strideElems)*8, false)
}

// StoreStride simulates count writes starting at element start with a
// stride of strideElems elements.
func (a *Array) StoreStride(c *machine.Context, start, count, strideElems int) {
	c.AccessRange(a.Addr(start), count, int64(strideElems)*8, true)
}

// Gather simulates reading elements a[idx[j]] for every j — the indexed
// access pattern of sparse kernels — through the bulk GatherRange fast path
// (one translation per touched page, one cache probe per line run). idx is
// never mutated; the caller computes on a.Data[idx[j]] directly.
func (a *Array) Gather(c *machine.Context, idx []int64) {
	c.GatherRange(a.Base, 8, idx)
}

// Fork returns a privately writable copy of the array for a forked run: the
// simulated placement (Name, Base) is preserved and Data is deep-copied.
// Arrays a kernel only reads during Run don't need forking — forked runs
// share them read-only (the copy-on-write discipline of the snapshot layer:
// static inputs alias, mutable state privatizes).
func (a *Array) Fork() *Array {
	if a == nil {
		return nil
	}
	return &Array{Name: a.Name, Base: a.Base, Data: append([]float64(nil), a.Data...)}
}

// Ints is a shared global array of int64 (index arrays of the CG kernel).
type Ints struct {
	Name string
	Base units.Addr
	Data []int64
}

// NewInts registers an int64 global of n elements under the page policy.
func (s *System) NewInts(name string, n int) (*Ints, error) {
	sym, err := s.Global(name, int64(n)*8)
	if err != nil {
		return nil, err
	}
	return &Ints{Name: name, Base: sym.Base, Data: make([]int64, n)}, nil
}

// MustInts is NewInts that panics on failure.
func (s *System) MustInts(name string, n int) *Ints {
	a, err := s.NewInts(name, n)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return a
}

// Len returns the element count.
func (a *Ints) Len() int { return len(a.Data) }

// Addr returns the simulated address of element i.
func (a *Ints) Addr(i int) units.Addr { return a.Base + units.Addr(i*8) }

// Load reads element i through the simulated memory system.
func (a *Ints) Load(c *machine.Context, i int) int64 {
	c.Load(a.Addr(i))
	return a.Data[i]
}

// Store writes element i through the simulated memory system.
func (a *Ints) Store(c *machine.Context, i int, v int64) {
	c.Store(a.Addr(i))
	a.Data[i] = v
}

// LoadRange simulates reading elements [lo, hi) sequentially.
func (a *Ints) LoadRange(c *machine.Context, lo, hi int) {
	c.AccessRange(a.Addr(lo), hi-lo, 8, false)
}

// Fork returns a privately writable copy (see Array.Fork).
func (a *Ints) Fork() *Ints {
	if a == nil {
		return nil
	}
	return &Ints{Name: a.Name, Base: a.Base, Data: append([]int64(nil), a.Data...)}
}
