// Package mpi implements the paper's last future-work item ("we would also
// like to evaluate the benefit of large pages on the performance of other
// programming paradigms such as MPI"): a small intra-node message-passing
// layer in the style of an MPI shared-memory device.
//
// Ranks are SPMD processes pinned to simulated hardware contexts. A message
// is staged through a shared-memory buffer — the sender streams its source
// buffer into the staging area, the receiver streams it out — with a
// control-message handshake per fragment, which is how intra-node MPI
// devices of the era (e.g. MPICH's shm channel, or SCore's SMP device that
// Omni/SCASH replaced) moved data. Because both the private buffers and the
// staging area live in the System's data region, the page policy under test
// (4 KB, 2 MB, mixed, transparent) governs every copy — which is exactly the
// evaluation the paper proposed.
//
// Control messages ride one buffered Go channel per ordered rank pair,
// MaxInFlight deep like the paper's mapped-file ring (§3.3). Their cost is a
// closed-form charge of MsgCyc per send and per receive; a Send fragment's
// payload travels in its control message, out of band, because the
// simulated copy is the staging traffic.
package mpi

import (
	"fmt"

	"hugeomp/internal/core"
	"hugeomp/internal/faultinject"
	"hugeomp/internal/machine"
	"hugeomp/internal/omp"
	"hugeomp/internal/units"
)

// StagingBytes is the size of each ordered pair's staging buffer; larger
// messages are pipelined through it fragment by fragment.
const StagingBytes = 64 * units.KB

// MaxInFlight is the number of control messages that may be outstanding
// from one rank to another: "Multiple outstanding messages may be in flight
// between a set of processes (up to 32 in the current implementation)"
// (§3.3). A sender with that many unreceived messages blocks.
const MaxInFlight = 32

// msg is one control message.
type msg struct {
	v    float64   // an Allreduce partial sum
	frag []float64 // a Send fragment's payload
}

// World is an MPI communicator over n ranks.
type World struct {
	rt *omp.RT

	staging []units.Addr // staging[from*n+to]
	ctl     []chan msg   // control channels, same indexing
	n       int

	fault *faultinject.Plan // nil = no injection
	// Per-ordered-pair control-message sequence numbers. sendSeq[p] is
	// touched only by the sending rank's goroutine and recvSeq[p] only by
	// the receiving rank's, so they need no locks — and they key fault
	// decisions to the message itself, independent of goroutine scheduling.
	sendSeq []uint64
	recvSeq []uint64
}

// NewWorld builds an n-rank world on sys. Staging buffers are allocated
// from the shared data region, so the system's page policy applies to the
// message path.
func NewWorld(sys *core.System, n int) (*World, error) {
	rt, err := sys.NewRT(n)
	if err != nil {
		return nil, err
	}
	w := &World{
		rt:      rt,
		staging: make([]units.Addr, n*n),
		ctl:     make([]chan msg, n*n),
		n:       n,
		sendSeq: make([]uint64, n*n),
		recvSeq: make([]uint64, n*n),
	}
	for i := range w.staging {
		addr, err := sys.Malloc(StagingBytes)
		if err != nil {
			return nil, fmt.Errorf("mpi: staging buffer %d: %w", i, err)
		}
		w.staging[i] = addr
		w.ctl[i] = make(chan msg, MaxInFlight)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// SetFaultPlan arms (or, with nil, disarms) message-loss/duplication
// injection. Call before Run.
func (w *World) SetFaultPlan(p *faultinject.Plan) { w.fault = p }

// RT exposes the underlying runtime (wall clock, counters).
func (w *World) RT() *omp.RT { return w.rt }

// Seconds returns the simulated wall-clock duration so far.
func (w *World) Seconds() float64 { return w.rt.Seconds() }

// Rank is one SPMD process.
type Rank struct {
	ID int
	C  *machine.Context
	w  *World
}

// Run executes body as an SPMD program: one goroutine per rank, wall-clock
// accounted like a single parallel region.
func (w *World) Run(body func(r *Rank)) {
	w.rt.Parallel(nil, func(tid int, c *machine.Context) {
		body(&Rank{ID: tid, C: c, w: w})
	})
}

func (w *World) pair(from, to int) int { return from*w.n + to }

// maxCtlRetries bounds the resend loop for a lost control message. Even a
// plan firing at rate 0.5 leaves a ~0.4% chance of exhausting 8 retries; the
// final send always goes through (the simulated network never hard-fails),
// so the bound caps cost, not correctness.
const maxCtlRetries = 8

// ctlSend posts one control message for pair p, simulating loss under an
// armed SiteMPILoss plan: each lost attempt charges a timeout with
// exponential backoff before the resend. Numerics are untouched — the real
// channel send always happens exactly once.
func (r *Rank) ctlSend(p int, m msg) {
	w := r.w
	costs := w.rt.Machine().Model.Costs
	seq := w.sendSeq[p]
	w.sendSeq[p]++
	key := uint64(p)<<32 | seq&0xffffffff
	for attempt := uint64(0); attempt < maxCtlRetries; attempt++ {
		if !w.fault.ShouldKey(faultinject.SiteMPILoss, key^(attempt+1)*0x9e3779b97f4a7c15) {
			break
		}
		// Timeout waiting for the ack that never came, then back off and
		// resend: 2^attempt message latencies, doubling per round.
		r.C.Wait(costs.MsgCyc << attempt)
		r.C.Ctr.MsgRetries++
	}
	w.ctl[p] <- m
	r.C.Wait(costs.MsgCyc)
}

// ctlRecv receives one control message for pair p, simulating duplicate
// delivery under an armed SiteMPIDup plan: the duplicate is recognised by
// its repeated sequence number and dropped at the cost of one extra message
// latency.
func (r *Rank) ctlRecv(p int) msg {
	w := r.w
	costs := w.rt.Machine().Model.Costs
	seq := w.recvSeq[p]
	w.recvSeq[p]++
	key := uint64(p)<<32 | seq&0xffffffff
	m := <-w.ctl[p]
	r.C.Wait(costs.MsgCyc)
	if w.fault.ShouldKey(faultinject.SiteMPIDup, key) {
		r.C.Wait(costs.MsgCyc)
		r.C.Ctr.MsgDups++
	}
	return m
}

// Send transmits elements [lo, hi) of arr to rank `to`. The transfer is
// pipelined through the shared staging buffer: per fragment the sender
// streams the source (read) and the staging area (write) and posts a
// control message carrying the fragment.
func (r *Rank) Send(to int, arr *core.Array, lo, hi int) {
	if to == r.ID {
		panic("mpi: send to self")
	}
	w := r.w
	p := w.pair(r.ID, to)
	fragElems := int(StagingBytes / 8)
	for base := lo; base < hi; base += fragElems {
		end := base + fragElems
		if end > hi {
			end = hi
		}
		// Stream source out, staging in.
		arr.LoadRange(r.C, base, end)
		r.C.AccessRange(w.staging[p], end-base, 8, true)
		// The payload moves out of band, in the handshake message.
		frag := make([]float64, end-base)
		copy(frag, arr.Data[base:end])
		r.ctlSend(p, msg{frag: frag})
	}
}

// Recv receives into elements [lo, hi) of arr from rank `from`.
func (r *Rank) Recv(from int, arr *core.Array, lo, hi int) {
	if from == r.ID {
		panic("mpi: recv from self")
	}
	w := r.w
	p := w.pair(from, r.ID)
	fragElems := int(StagingBytes / 8)
	for base := lo; base < hi; base += fragElems {
		end := base + fragElems
		if end > hi {
			end = hi
		}
		m := r.ctlRecv(p)
		// Stream staging out, destination in.
		r.C.AccessRange(w.staging[p], end-base, 8, false)
		arr.StoreRange(r.C, base, end)
		copy(arr.Data[base:end], m.frag)
	}
}

// SendRecv exchanges with a partner (deadlock-free pairwise exchange: the
// lower rank sends first).
func (r *Rank) SendRecv(partner int, send *core.Array, slo, shi int, recv *core.Array, rlo, rhi int) {
	if r.ID < partner {
		r.Send(partner, send, slo, shi)
		r.Recv(partner, recv, rlo, rhi)
	} else {
		r.Recv(partner, recv, rlo, rhi)
		r.Send(partner, send, slo, shi)
	}
}

// Barrier is a dissemination barrier across the world.
func (r *Rank) Barrier() {
	w := r.w
	for round := 1; round < w.n; round <<= 1 {
		to := (r.ID + round) % w.n
		from := (r.ID - round + w.n) % w.n
		r.ctlSend(w.pair(r.ID, to), msg{})
		r.ctlRecv(w.pair(from, r.ID))
	}
}

// Allreduce sums each rank's value across the world (recursive doubling on
// scalars; O(log n) rounds of control messages). The world size must be a
// power of two (as for the classic recursive-doubling algorithm).
func (r *Rank) Allreduce(v float64) float64 {
	w := r.w
	if w.n&(w.n-1) != 0 {
		panic(fmt.Sprintf("mpi: Allreduce requires a power-of-two world, have %d", w.n))
	}
	for round := 1; round < w.n; round <<= 1 {
		to := (r.ID + round) % w.n
		from := (r.ID - round + w.n) % w.n
		r.ctlSend(w.pair(r.ID, to), msg{v: v})
		v += r.ctlRecv(w.pair(from, r.ID)).v
	}
	return v
}
