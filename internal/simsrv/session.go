package simsrv

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hugeomp/internal/check"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

// run answers one compiled request: from the memo when a flight for key has
// completed, else memoized, single-flighted, admitted by the scheduler and
// executed under a context that expires at deadline. It returns the
// result's canonical JSON as the memo stores it — encoded once, by the memo,
// on the miss that computed it — which the caller must not modify. A hit
// builds neither the context nor the memo's compute. handleRun answers a
// repeated body from the memo before it compiles; this Lookup answers the
// bodies it has not seen, such as a respelling ("cg" for "CG", fields
// reordered, a deadline added) of a memoized config.
//
// The memo collapses concurrent identical requests onto one flight. When
// that flight's leader is cancelled, its abort error is reported to every
// collapsed waiter and the key is forgotten — so a waiter whose own budget
// is still live retries and becomes the new leader, keeping retries
// idempotent: the first request to actually finish publishes the
// bit-deterministic result everyone else is served.
func (s *Server) run(parent context.Context, deadline time.Time, cfg npb.RunConfig, kernel, key string) ([]byte, bool, error) {
	if data, ok := s.memo.Lookup(key); ok {
		return data, true, nil
	}
	ctx, cancel := context.WithDeadline(parent, deadline)
	defer cancel()
	f := &flight{s: s, ctx: ctx, cfg: cfg, kernel: kernel}
	for {
		data, hit, err := s.memo.GetOrComputeBytes(key, f.compute)
		if err == nil {
			return data, hit, nil
		}
		if errors.Is(err, omp.ErrAborted) && ctx.Err() == nil {
			// The flight we were collapsed onto died with its leader's
			// budget, not ours: retry under our own.
			s.ctr.retries.Add(1)
			continue
		}
		return nil, false, err
	}
}

// flight is what a memo miss needs to run its session. Built only on a
// miss, it holds the one heap copy of the run config a request makes.
type flight struct {
	s      *Server
	ctx    context.Context
	cfg    npb.RunConfig
	kernel string
}

func (f *flight) compute() (any, error) { return f.s.dispatch(f.ctx, f.cfg, f.kernel, "") }

// dispatch admits one session through the scheduler and runs it on the
// caller's goroutine. Admission is the only place a request waits: it queues
// FIFO on its own deadline budget, a full queue refuses with ErrSaturated,
// and a closed scheduler with ErrDraining. Once admitted, the session always
// runs to a conclusion: a cancelled request's session observes the dead
// context at its first checkpoint and returns within one checkpoint
// interval, freeing the worker slot.
func (s *Server) dispatch(ctx context.Context, cfg npb.RunConfig, kernel, inject string) (npb.Result, error) {
	est := npb.ForkBytes(cfg.Class)
	if err := s.sched.acquire(ctx, est); err != nil {
		return npb.Result{}, err
	}
	defer s.sched.release(est)
	key := tmplKey{Kernel: kernel, Class: cfg.Class, Policy: cfg.Policy, HugePages: cfg.HugePages}
	return s.session(ctx, cfg, key, s.tmpls.get(key), inject)
}

// session is one simulation on template slot e, and the service's one panic
// boundary: a panic anywhere inside — template build, kernel, runtime,
// machine model, or an injected fault — is recovered here, counted, and
// converted into a typed error for this request only. A panicked build drops
// its slot, so the next session rebuilds instead of inheriting a dead
// sync.Once. A panicked run abandons its fork (its page table and pools are
// copies, sharing nothing writable with the snapshot), and the shared
// template is audited before being trusted again.
//
//simlint:panicboundary
func (s *Server) session(ctx context.Context, cfg npb.RunConfig, key tmplKey, e *tmplEntry, inject string) (res npb.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.ctr.panicked.Add(1)
			// e.w is written only inside e.once, which has returned or
			// panicked on this goroutine before any panic reaches here.
			switch {
			case e.w == nil:
				s.tmpls.drop(key, e)
			case !s.auditTemplate(e.w, cfg):
				s.evictTemplate(key, e)
			}
			err = fmt.Errorf("%w: %v", ErrSessionPanic, r)
		}
	}()
	w, err := s.template(key, e, cfg)
	if err != nil {
		return npb.Result{}, err
	}
	if inject == "panic" {
		panic("simsrv: injected session panic")
	}
	run := cfg
	run.Ctx = ctx
	result, _, _, err := w.RunOn(run)
	if err != nil {
		return npb.Result{}, err
	}
	return result, nil
}

// auditTemplate asserts sibling isolation after a panic: a fresh fork of
// the template must run to a verified completion and pass the full machine
// audit. True means the snapshot is intact — the panic died with its own
// fork; false quarantines the template. The audit run is uncancellable by
// design: it is the server deciding whether its own shared state is sound.
func (s *Server) auditTemplate(w *npb.Warm, cfg npb.RunConfig) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false // the snapshot itself reproduces the panic
		}
	}()
	probe := cfg
	probe.Ctx = nil
	_, sys, _, err := w.RunOn(probe)
	if err != nil || sys == nil {
		return false
	}
	return check.All(sys.Machine) == nil
}
