// Package shmem provides the intra-node shared-memory substrate of the
// modified Omni/SCASH runtime: (a) Region, a memory-mapped-file shared
// segment installed into the process page table, and (b) Channel, the
// paper's replacement for the SCore/Myrinet transport — "a simple shared
// memory message passing interface through a file memory mapped into each
// process's space … Multiple outstanding messages may be in flight between a
// set of processes (up to 32 in the current implementation)" (§3.3).
//
// The channel is a single-copy, flag-signalled ring: the sender copies the
// payload into a shared slot and raises its flag; the receiver reads the
// payload in place and clears the flag to recycle the slot.
package shmem

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"hugeomp/internal/mem"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

// Channel geometry, as in the paper.
const (
	MaxInFlight = 32   // outstanding messages per direction
	MaxMsgSize  = 1024 // intra-node messages are small (< 1KB)
)

// Errors.
var (
	ErrMsgTooBig  = errors.New("shmem: message exceeds MaxMsgSize")
	ErrWouldBlock = errors.New("shmem: ring full")
)

// Region is a shared segment backed by a memory-mapped file. The backing
// page size is configurable: the Omni/SCASH global data region is the one
// the paper moves to 2 MB pages, while the message-passing file "uses
// traditional small pages (4KB) and not large pages".
type Region struct {
	Base units.Addr
	Len  int64
	Size units.PageSize
}

// NewRegion allocates physical frames for a shared segment of length bytes
// (rounded up to the page size) and maps it at base in pt.
func NewRegion(phys *mem.PhysMem, pt *pagetable.Table, base units.Addr, length int64,
	size units.PageSize, prot pagetable.Prot) (*Region, error) {
	if uint64(base)%uint64(size.Bytes()) != 0 {
		return nil, fmt.Errorf("shmem: base %#x not %s aligned", base, size)
	}
	length = units.AlignUp(length, size.Bytes())
	n := length / size.Bytes()
	for i := int64(0); i < n; i++ {
		var pfn uint64
		var err error
		if size == units.Size2M {
			pfn, err = phys.Alloc2M()
		} else {
			pfn, err = phys.Alloc4K()
		}
		if err == nil {
			// MapRetry absorbs injected transient map failures; a real
			// conflict (overlap, misalignment) still surfaces immediately.
			err = pt.MapRetry(base+units.Addr(i*size.Bytes()), size, pfn, prot)
		}
		if err != nil {
			return nil, fmt.Errorf("shmem: region page %d/%d: %w", i+1, n, err)
		}
	}
	return &Region{Base: base, Len: length, Size: size}, nil
}

// Contains reports whether va falls inside the region.
func (r *Region) Contains(va units.Addr) bool {
	return va >= r.Base && va < r.Base+units.Addr(r.Len)
}

// End returns one past the last address of the region.
func (r *Region) End() units.Addr { return r.Base + units.Addr(r.Len) }

type slotState = uint32

const (
	slotFree slotState = iota
	slotFull
)

type slot struct {
	flag atomic.Uint32
	n    int
	data [MaxMsgSize]byte
}

// Channel is a single-producer single-consumer message ring between two
// processes (one direction). It performs exactly one copy: sender into the
// shared slot; the receiver's view is the slot itself.
//
// The sender's and the receiver's ring cursors live on separate padded cache
// lines, so advancing one never bounces the line the other side polls.
// simlint's padding analyzer checks that the two writers' fields never meet
// on one 64-byte line.
type Channel struct {
	slots [MaxInFlight]slot

	// head is the next slot the sender fills, tail the next slot the
	// receiver drains.
	head atomic.Uint64 //simlint:writer sender
	_    [56]byte
	tail atomic.Uint64 //simlint:writer receiver
	_    [56]byte
}

// NewChannel creates an empty ring.
func NewChannel() *Channel { return &Channel{} }

// TrySend enqueues data without blocking. It returns ErrWouldBlock when all
// 32 slots are in flight and ErrMsgTooBig for oversized payloads.
func (c *Channel) TrySend(data []byte) error {
	if len(data) > MaxMsgSize {
		return fmt.Errorf("%w: %d bytes", ErrMsgTooBig, len(data))
	}
	h := c.head.Load()
	s := &c.slots[h%MaxInFlight]
	if s.flag.Load() != slotFree {
		return ErrWouldBlock
	}
	s.n = copy(s.data[:], data)
	s.flag.Store(slotFull) // release: publishes the payload
	c.head.Store(h + 1)
	return nil
}

// Send enqueues data, spinning until a slot frees up (the real
// implementation busy-waits on the flag word in shared memory; here the
// spin yields to the scheduler so simulated processes on one OS thread make
// progress).
func (c *Channel) Send(data []byte) error {
	for {
		err := c.TrySend(data)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrWouldBlock) {
			return err
		}
		runtime.Gosched()
	}
}

// TryRecv dequeues the next message into buf, returning the payload length
// and true, or false when the ring is empty.
func (c *Channel) TryRecv(buf []byte) (int, bool) {
	t := c.tail.Load()
	s := &c.slots[t%MaxInFlight]
	if s.flag.Load() != slotFull {
		return 0, false
	}
	n := copy(buf, s.data[:s.n])
	s.flag.Store(slotFree) // recycle the slot
	c.tail.Store(t + 1)
	return n, true
}

// Recv dequeues the next message, spinning until one arrives.
func (c *Channel) Recv(buf []byte) int {
	for {
		if n, ok := c.TryRecv(buf); ok {
			return n
		}
		runtime.Gosched()
	}
}

// Mesh is the all-pairs channel fabric the runtime builds at startup: one
// Channel per ordered process pair.
type Mesh struct {
	n  int
	ch []*Channel // ch[from*n+to]
}

// NewMesh builds channels for n processes.
func NewMesh(n int) *Mesh {
	m := &Mesh{n: n, ch: make([]*Channel, n*n)}
	for i := range m.ch {
		m.ch[i] = NewChannel()
	}
	return m
}

// Chan returns the channel from process `from` to process `to`.
func (m *Mesh) Chan(from, to int) *Channel { return m.ch[from*m.n+to] }
