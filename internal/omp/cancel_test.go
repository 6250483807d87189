package omp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"hugeomp/internal/machine"
)

func TestCheckpointUnboundAndLive(t *testing.T) {
	rt := newRT(t, machine.Opteron270(), 2)
	if err := rt.Checkpoint(); err != nil {
		t.Fatalf("unbound Checkpoint = %v, want nil", err)
	}
	rt.Bind(context.Background())
	if err := rt.Checkpoint(); err != nil {
		t.Fatalf("live-context Checkpoint = %v, want nil", err)
	}
}

func TestCheckpointAbortIsSticky(t *testing.T) {
	rt := newRT(t, machine.Opteron270(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	rt.Bind(ctx)
	cancel()
	err := rt.Checkpoint()
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Checkpoint = %v, want ErrAborted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Checkpoint = %v, want wrapped context.Canceled", err)
	}
	if again := rt.Checkpoint(); again != err { //nolint:errorlint // identity: sticky
		t.Fatalf("second Checkpoint = %v, want the latched %v", again, err)
	}
}

// TestCancelledWorksharingSkipsChunksConserved: once the bound context is
// done, worksharing loops stop issuing chunks, but the region still runs its
// implicit barrier and merges its deltas — the runtime stays audit-consistent
// and the region count advances.
func TestCancelledWorksharingSkipsChunksConserved(t *testing.T) {
	for _, sched := range []ScheduleKind{Static, Dynamic, Guided} {
		t.Run(sched.String(), func(t *testing.T) {
			rt := newRT(t, machine.Opteron270(), 4)
			ctx, cancel := context.WithCancel(context.Background())
			rt.Bind(ctx)
			cancel()

			var bodies atomic.Int64
			rt.ParallelFor(nil, 1024, For{Schedule: sched},
				func(tid int, c *machine.Context, lo, hi int) { bodies.Add(1) })
			if got := bodies.Load(); got != 0 {
				t.Errorf("cancelled %s loop ran %d chunks, want 0", sched, got)
			}
			if rt.regions != 1 {
				t.Errorf("regions = %d, want 1 (aborted region must still account)", rt.regions)
			}
			// The barrier was still charged: with 4 threads the region cost
			// cannot be fork overhead alone.
			if rt.WallCycles() <= rt.m.Model.Costs.ForkCyc {
				t.Errorf("wall = %d cycles, want > fork overhead %d (barrier must still run)",
					rt.WallCycles(), rt.m.Model.Costs.ForkCyc)
			}
			// The deltas merged into the region profiles equal the raw
			// context counters: nothing was lost between the join and the
			// totals.
			var profSum uint64
			for _, p := range rt.RegionProfiles() {
				profSum += p.Counters.Busy
			}
			if ctxSum := rt.TotalCounters().Busy; profSum != ctxSum {
				t.Errorf("merged busy deltas %d != context busy total %d", profSum, ctxSum)
			}
		})
	}
}

// TestIdleContextBitIdentical: binding a context that never fires must not
// change a single counter — the cancellation polls are pure reads.
func TestIdleContextBitIdentical(t *testing.T) {
	run := func(bind bool) (uint64, uint64) {
		rt := newRT(t, machine.XeonHT(), 4)
		if bind {
			rt.Bind(context.Background())
		}
		for _, sched := range []ScheduleKind{Static, Dynamic, Guided} {
			rt.ParallelFor(nil, 512, For{Schedule: sched},
				func(tid int, c *machine.Context, lo, hi int) {
					c.Compute(uint64(hi - lo))
				})
		}
		return rt.WallCycles(), rt.TotalCounters().Busy
	}
	w0, b0 := run(false)
	w1, b1 := run(true)
	if w0 != w1 || b0 != b1 {
		t.Errorf("idle bound run (wall=%d busy=%d) differs from unbound (wall=%d busy=%d)",
			w1, b1, w0, b0)
	}
}
