package mpi

import (
	"math"
	"sync/atomic"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/faultinject"
	"hugeomp/internal/machine"
	"hugeomp/internal/units"
)

func world(t *testing.T, policy core.PagePolicy, ranks int) (*World, *core.System) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Model:       machine.Opteron270(),
		Policy:      policy,
		SharedBytes: 64 * units.MB,
		PhysBytes:   512 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(sys, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return w, sys
}

func TestSendRecvMovesData(t *testing.T) {
	w, sys := world(t, core.Policy4K, 2)
	const n = 20000 // > one staging fragment (8192 elems)
	src := sys.MustArray("src", n)
	dst := sys.MustArray("dst", n)
	for i := range src.Data {
		src.Data[i] = float64(i) * 1.5
	}
	w.Run(func(r *Rank) {
		switch r.ID {
		case 0:
			r.Send(1, src, 0, n)
		case 1:
			r.Recv(0, dst, 0, n)
		}
	})
	for i := range dst.Data {
		if dst.Data[i] != float64(i)*1.5 {
			t.Fatalf("dst[%d] = %v", i, dst.Data[i])
		}
	}
	// The transfer streamed both buffers and the staging area.
	total := w.RT().TotalCounters()
	if total.Loads == 0 || total.Stores == 0 {
		t.Error("no simulated traffic from the transfer")
	}
}

func TestSendRecvExchange(t *testing.T) {
	w, sys := world(t, core.Policy4K, 4)
	const n = 4096
	mine := sys.MustArray("mine", 4*n)
	theirs := sys.MustArray("theirs", 4*n)
	for i := range mine.Data {
		mine.Data[i] = float64(i / n) // rank id
	}
	w.Run(func(r *Rank) {
		partner := r.ID ^ 1
		o := r.ID * n
		po := partner * n
		r.SendRecv(partner, mine, o, o+n, theirs, po, po+n)
	})
	for rank := 0; rank < 4; rank++ {
		partner := rank ^ 1
		if got := theirs.Data[partner*n]; got != float64(partner) {
			t.Errorf("rank %d received %v from %d", rank, got, partner)
		}
	}
}

func TestBarrierSynchronises(t *testing.T) {
	w, _ := world(t, core.Policy4K, 4)
	var before, violations atomic.Int32
	w.Run(func(r *Rank) {
		before.Add(1)
		r.Barrier()
		if before.Load() != 4 {
			violations.Add(1)
		}
	})
	if violations.Load() != 0 {
		t.Error("a rank passed the barrier before all arrived")
	}
}

func TestAllreduce(t *testing.T) {
	w, _ := world(t, core.Policy4K, 4)
	results := make([]float64, 4)
	w.Run(func(r *Rank) {
		results[r.ID] = r.Allreduce(float64(r.ID + 1))
	})
	for rank, got := range results {
		if got != 10 { // 1+2+3+4
			t.Errorf("rank %d allreduce = %v, want 10", rank, got)
		}
	}
}

func TestAllreduceRequiresPow2(t *testing.T) {
	w, _ := world(t, core.Policy4K, 3)
	var panicked atomic.Bool
	w.Run(func(r *Rank) {
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		r.Allreduce(1)
	})
	if !panicked.Load() {
		t.Error("3-rank allreduce should panic")
	}
}

func TestLargePagesHelpMessagePath(t *testing.T) {
	// The paper's proposed MPI evaluation: halo-style exchanges of large
	// buffers should walk far less with 2MB pages.
	run := func(policy core.PagePolicy) (float64, uint64) {
		w, sys := world(t, policy, 4)
		const n = 1 << 19 // 4MB per array
		a := sys.MustArray("a", n)
		b := sys.MustArray("b", n)
		w.Run(func(r *Rank) {
			part := n / 4
			o := r.ID * part
			po := (r.ID ^ 1) * part
			for step := 0; step < 2; step++ {
				r.SendRecv(r.ID^1, a, o, o+part, b, po, po+part)
				r.Barrier()
			}
		})
		return w.Seconds(), w.RT().TotalCounters().DTLBWalks()
	}
	s4, w4 := run(core.Policy4K)
	s2, w2 := run(core.Policy2M)
	if w2*2 >= w4 {
		t.Errorf("2M walks %d not well below 4K walks %d", w2, w4)
	}
	if s2 > s4 {
		t.Errorf("2M pages slower on the message path: %v > %v", s2, s4)
	}
}

// TestInjectedLossAndDupOnlyShiftCycles: with loss and duplication armed,
// transfers still deliver byte-identical data; retries/dups are counted and
// cost cycles; and the same seed reproduces the same counters.
func TestInjectedLossAndDupOnlyShiftCycles(t *testing.T) {
	const n = 80000 // ~10 staging fragments, enough draws for both sites
	run := func(seed uint64, arm bool) ([]float64, uint64, uint64, uint64) {
		w, sys := world(t, core.Policy4K, 2)
		if arm {
			w.SetFaultPlan(faultinject.New(seed).
				Enable(faultinject.SiteMPILoss, 0.5).
				Enable(faultinject.SiteMPIDup, 0.5))
		}
		src := sys.MustArray("src", n)
		dst := sys.MustArray("dst", n)
		for i := range src.Data {
			src.Data[i] = float64(i) * 1.5
		}
		w.Run(func(r *Rank) {
			switch r.ID {
			case 0:
				r.Send(1, src, 0, n)
			case 1:
				r.Recv(0, dst, 0, n)
			}
		})
		total := w.RT().TotalCounters()
		out := make([]float64, n)
		copy(out, dst.Data)
		return out, total.MsgRetries, total.MsgDups, total.Busy
	}
	clean, r0, d0, busyClean := run(1, false)
	if r0 != 0 || d0 != 0 {
		t.Fatalf("unarmed run counted retries=%d dups=%d", r0, d0)
	}
	faulty, retries, dups, busyFaulty := run(1, true)
	if retries == 0 || dups == 0 {
		t.Fatalf("armed run at rate 0.3 counted retries=%d dups=%d", retries, dups)
	}
	if busyFaulty <= busyClean {
		t.Fatalf("injected faults did not cost cycles: %d <= %d", busyFaulty, busyClean)
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("numerics diverged at %d under injected faults", i)
		}
	}
	_, retries2, dups2, busy2 := run(1, true)
	if retries2 != retries || dups2 != dups || busy2 != busyFaulty {
		t.Fatalf("same seed not reproducible: (%d,%d,%d) vs (%d,%d,%d)",
			retries, dups, busyFaulty, retries2, dups2, busy2)
	}
}

// TestInjectedLossInCollectives: barrier and allreduce survive loss/dup and
// still compute the right reduction.
func TestInjectedLossInCollectives(t *testing.T) {
	w, _ := world(t, core.Policy4K, 4)
	w.SetFaultPlan(faultinject.New(9).
		Enable(faultinject.SiteMPILoss, 0.4).
		Enable(faultinject.SiteMPIDup, 0.4))
	var bad atomic.Int64
	w.Run(func(r *Rank) {
		r.Barrier()
		got := r.Allreduce(float64(r.ID + 1))
		if got != 10 { // 1+2+3+4
			bad.Add(1)
		}
		r.Barrier()
	})
	if bad.Load() != 0 {
		t.Fatal("allreduce wrong under injected message faults")
	}
	if total := w.RT().TotalCounters(); total.MsgRetries == 0 {
		t.Fatal("collectives drew no retries at rate 0.4")
	}
}

// TestCountersPinned pins the message path's exact counters: a 4-rank
// SendRecv (three staging fragments each way), Barrier, Allreduce and Barrier
// under a seeded loss and duplication plan, with 4 KB and 2 MB pages. Every
// charge is closed-form and keyed by message sequence number, so each rank's
// counters and the wall clock are fixed values, whatever carries the messages
// on the host.
func TestCountersPinned(t *testing.T) {
	type rankCtr struct{ busy, barrierCyc, retries, dups, walks uint64 }
	cases := []struct {
		policy  core.PagePolicy
		seconds uint64 // math.Float64bits(w.Seconds())
		ranks   [4]rankCtr
	}{
		{core.Policy4K, 0x3f36eb0f3e479f8d, [4]rankCtr{
			{690140, 31500, 7, 2, 112},
			{684016, 26100, 5, 2, 112},
			{686408, 27900, 7, 2, 112},
			{695408, 36900, 8, 1, 112},
		}},
		{core.Policy2M, 0x3f362e25e959dc7b, [4]rankCtr{
			{667648, 31500, 7, 2, 1},
			{661588, 26100, 5, 2, 1},
			{663888, 27900, 7, 2, 2},
			{672888, 36900, 8, 1, 2},
		}},
	}
	for _, tc := range cases {
		w, sys := world(t, tc.policy, 4)
		w.SetFaultPlan(faultinject.New(2007).
			Enable(faultinject.SiteMPILoss, 0.3).
			Enable(faultinject.SiteMPIDup, 0.3))
		const part = 20000
		a := sys.MustArray("a", 4*part)
		b := sys.MustArray("b", 4*part)
		for i := range a.Data {
			a.Data[i] = float64(i)
		}
		sums := make([]float64, 4)
		w.Run(func(r *Rank) {
			o, po := r.ID*part, (r.ID^1)*part
			r.SendRecv(r.ID^1, a, o, o+part, b, po, po+part)
			r.Barrier()
			sums[r.ID] = r.Allreduce(float64(r.ID + 1))
			r.Barrier()
		})
		for i := range b.Data {
			if b.Data[i] != float64(i) {
				t.Fatalf("%v: b[%d] = %v, want %d", tc.policy, i, b.Data[i], i)
			}
		}
		for rank, got := range sums {
			if got != 10 {
				t.Errorf("%v: rank %d allreduce = %v, want 10", tc.policy, rank, got)
			}
		}
		for rank, c := range w.RT().Contexts() {
			got := rankCtr{c.Ctr.Busy, c.Ctr.BarrierCyc, c.Ctr.MsgRetries, c.Ctr.MsgDups, c.Ctr.DTLBWalks()}
			if got != tc.ranks[rank] {
				t.Errorf("%v: rank %d {busy, barrierCyc, retries, dups, walks} = %v, want %v",
					tc.policy, rank, got, tc.ranks[rank])
			}
		}
		if got := math.Float64bits(w.Seconds()); got != tc.seconds {
			t.Errorf("%v: Seconds bits = %#x, want %#x", tc.policy, got, tc.seconds)
		}
	}
}
