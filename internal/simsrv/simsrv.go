// Package simsrv is the fault-tolerant simulator service behind cmd/simd: an
// HTTP/JSON front end that accepts (machine config, workload, params)
// requests, runs them on warmed snapshot forks, and returns the run's
// counters. The batch drivers (cmd/experiments, cmd/sweep, cmd/chaos) build
// one System per cell and crash loudly on any error; the service inverts
// every one of those assumptions:
//
//   - Cancellation. Each request carries a deadline budget; the run context
//     is threaded through the OpenMP runtime (omp.RT.Bind) so an abandoned
//     request stops at its next checkpoint, frees its worker slot, and leaves
//     an aborted fork that still passes the full check.All audit.
//
//   - Admission control. One scheduler admits sessions from one FIFO once a
//     worker slot is free and the session's estimated footprint fits the
//     memory budget. A waiting request spends its own deadline budget (504
//     when it runs out); a full queue refuses at once — 429 with a
//     Retry-After — instead of queueing unboundedly; a draining server
//     answers 503.
//
//   - Panic quarantine. A panic inside a session — template build included —
//     is recovered at the session boundary, turned into a typed error for
//     that request alone, and the poisoned fork is abandoned. The shared warm
//     snapshot is then audited through a sibling fork; only if the audit
//     fails is the template itself quarantined (evicted). The server never
//     dies with a session.
//
//   - Idempotent retries. Results are memoized under the canonical content
//     key of the simulated configuration (internal/memo), so a client retry
//     — or a concurrent duplicate, collapsed by the memo's single-flight —
//     observes bit-identical counters without a second simulation. A
//     retry that repeats its body byte for byte is answered without even
//     decoding it. Every answer carries the result's stored canonical JSON
//     as it is, never decoded and re-encoded.
//
// See docs/ROBUSTNESS.md ("Service failure model") for the contract each
// piece upholds.
package simsrv

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/memo"
	"hugeomp/internal/memo/diskcache"
	"hugeomp/internal/npb"
)

// Typed session errors: every failure a request can observe is classified,
// counted, and reported with a machine-readable kind.
var (
	// ErrSessionPanic wraps a panic recovered at a session boundary.
	ErrSessionPanic = errors.New("simsrv: session panicked")
	// ErrSaturated reports a full admission queue.
	ErrSaturated = errors.New("simsrv: admission queue full")
	// ErrDraining reports a server that is shutting down.
	ErrDraining = errors.New("simsrv: draining")

	errBuildPanicked = errors.New("simsrv: template build panicked in a concurrent session")
)

// Config sizes the service.
type Config struct {
	// Workers bounds concurrent simulations; 0 = GOMAXPROCS.
	Workers int
	// Queue bounds sessions waiting for admission (a worker slot or
	// footprint budget); further arrivals get 429. 0 = 2×workers.
	Queue int
	// DefaultDeadline applies when a request names none.
	DefaultDeadline time.Duration
	// MaxDeadline caps any request's deadline budget: the server owns its
	// worst-case occupancy, not the client.
	MaxDeadline time.Duration
	// MemoCapacity bounds the result cache (entries); 0 = unbounded.
	MemoCapacity int
	// AllowInject enables the test-only fault injection field on requests
	// (the chaos harness's panic trigger). Off in production.
	AllowInject bool
	// MaxBodyBytes bounds a request body; 0 = 1 MiB.
	MaxBodyBytes int64
	// CacheDir, when non-empty, backs the result memo with the crash-safe
	// shared on-disk store at that path (internal/memo/diskcache): results
	// survive restarts and are shared with every process — sweeps, soaks,
	// other simd instances — pointed at the same directory.
	CacheDir string
	// MemBudget bounds the summed estimated footprint (npb.ForkBytes) of
	// concurrently admitted sessions, in bytes; 0 = unbounded. Sessions that
	// would overflow it wait FIFO on their own deadline budget.
	MemBudget int64
	// TemplateBudget bounds the warmed-template pool's resident bytes
	// (npb.TemplateBytes per template); 0 = unbounded. Least-recently-used
	// templates beyond it are evicted and rebuilt cold on next use.
	TemplateBudget int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) // one simulation saturates one host core
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Counters are the service's typed event counts, one per observable outcome
// class, exposed by /stats and asserted by the soak harness.
//
// MemoMisses counts the simulations started only when no disk cache is
// configured. With CacheDir set, a memo miss that the disk answers runs no
// simulation; Gauges.DiskMisses counts the simulations started then.
type Counters struct {
	Requests    uint64 `json:"requests"`     // admitted /run requests
	Completed   uint64 `json:"completed"`    // answered with a result
	CacheHits   uint64 `json:"cache_hits"`   // answered from the memo or the disk cache
	Aborted     uint64 `json:"aborted"`      // cancelled or deadline-expired
	Panicked    uint64 `json:"panicked"`     // sessions recovered at the boundary
	Quarantined uint64 `json:"quarantined"`  // templates evicted after a failed audit
	Rejected    uint64 `json:"rejected"`     // refused by admission control (429)
	Drained     uint64 `json:"drained"`      // refused while draining (503)
	Invalid     uint64 `json:"invalid"`      // malformed or oversized requests (4xx)
	Failed      uint64 `json:"failed"`       // other run failures (500)
	Retries     uint64 `json:"retries"`      // single-flight retries after a leader abort
	MemoMisses  uint64 `json:"memo_misses"`  // lookups the in-memory memo missed (see above)
	MemoEvicted uint64 `json:"memo_evicted"` // results dropped by the capacity bound
}

type counters struct {
	requests, completed, cacheHits atomic.Uint64
	aborted, panicked, quarantined atomic.Uint64
	rejected, drained, invalid     atomic.Uint64
	failed, retries                atomic.Uint64
}

// Server is the simulator service. Create with NewServer; serve its Handler.
type Server struct {
	cfg   Config
	sched *sched
	memo  *memo.Cache
	disk  *diskcache.Store // nil when CacheDir is unset
	tmpls *tmplPool
	ctr   counters

	// bodyKeys lets a repeated request body skip decode and compile on a
	// memo hit; see handleRun.
	bodyKeys *bodyKeys

	draining atomic.Bool
}

// tmplKey identifies a warm template: exactly the construction-shaping
// fields that must match between a template and a fork (npb.Warm's
// contract); model, sharing, barrier, threads and iterations are free per
// fork and deliberately absent.
type tmplKey struct {
	Kernel    string
	Class     npb.Class
	Policy    core.PagePolicy
	HugePages int
}

// NewServer builds a server. Callers serve s.Handler() and, on shutdown,
// call s.Drain followed by s.Close. The only constructor failure is an
// unusable CacheDir — a server without a disk cache never errors.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		sched: newSched(cfg.Workers, cfg.MemBudget, cfg.Queue),
		memo:  memo.NewBounded(cfg.MemoCapacity),
		tmpls: newTmplPool(cfg.TemplateBudget),

		bodyKeys: newBodyKeys(cfg.MemoCapacity),
	}
	if cfg.CacheDir != "" {
		disk, err := diskcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.memo.SetBacking(disk)
	}
	return s, nil
}

// Drain puts the server into draining mode: every subsequent request is
// refused with 503 while in-flight sessions run to completion (or their
// deadlines). Idempotent.
func (s *Server) Drain() { s.draining.Store(true) }

// Close stops admission — a later cache-missing request gets 503 — and
// returns once every queued and running session has finished. Call after
// Drain and after the HTTP listener has shut down. Idempotent.
func (s *Server) Close() { s.sched.close() }

// Counters snapshots the typed event counts.
func (s *Server) Counters() Counters {
	_, misses := s.memo.Stats()
	return Counters{
		Requests:    s.ctr.requests.Load(),
		Completed:   s.ctr.completed.Load(),
		CacheHits:   s.ctr.cacheHits.Load(),
		Aborted:     s.ctr.aborted.Load(),
		Panicked:    s.ctr.panicked.Load(),
		Quarantined: s.ctr.quarantined.Load(),
		Rejected:    s.ctr.rejected.Load(),
		Drained:     s.ctr.drained.Load(),
		Invalid:     s.ctr.invalid.Load(),
		Failed:      s.ctr.failed.Load(),
		Retries:     s.ctr.retries.Load(),
		MemoMisses:  misses,
		MemoEvicted: s.memo.Evictions(),
	}
}

// template returns e's warm template, building it on first use and
// settling it into the budget-bounded pool. A quarantined or
// capacity-evicted template is simply gone from the pool, so the next session
// rebuilds from scratch — cold construction cannot be poisoned by a dead
// fork.
func (s *Server) template(key tmplKey, e *tmplEntry, cfg npb.RunConfig) (*npb.Warm, error) {
	e.once.Do(func() {
		// A panicking build leaves this error for the sessions that waited
		// on the same once; the builder's own session boundary drops e.
		e.err = errBuildPanicked
		base := cfg
		base.Ctx = nil // templates outlive any request
		e.w, e.err = npb.NewWarm(key.Kernel, base)
		if e.err == nil {
			e.bytes = npb.TemplateBytes(cfg.Class)
		}
	})
	if e.err != nil {
		// Failed construction is not cached: drop the slot so a later
		// request retries (the failure may have been load-dependent).
		s.tmpls.drop(key, e)
		return nil, e.err
	}
	s.tmpls.settle(key, e)
	return e.w, nil
}

// evictTemplate quarantines one template: future sessions rebuild cold.
func (s *Server) evictTemplate(key tmplKey, e *tmplEntry) {
	s.tmpls.drop(key, e)
	s.ctr.quarantined.Add(1)
}

// Gauges are the service's point-in-time readings — scheduler occupancy,
// template-pool residency, disk-cache traffic — exposed by /stats next to
// the monotone Counters.
type Gauges struct {
	// Admission scheduler: sessions waiting for a worker slot or the
	// footprint budget, sessions running, bytes charged now / at peak, the
	// configured budget (0 = unbounded), and the monotone count of sessions
	// that had to wait. Refusals are Counters.Rejected.
	SchedQueued       int    `json:"sched_queued"`
	SchedRunning      int    `json:"sched_running"`
	SchedChargedBytes int64  `json:"sched_charged_bytes"`
	SchedPeakBytes    int64  `json:"sched_peak_bytes"`
	SchedBudgetBytes  int64  `json:"sched_budget_bytes"`
	SchedBudgetWaits  uint64 `json:"sched_budget_waits"`
	// Warmed-template pool: settled residents, their estimated bytes, the
	// budget (0 = unbounded), capacity evictions and cold builds.
	TemplateResidents   int    `json:"template_residents"`
	TemplateBytes       int64  `json:"template_bytes"`
	TemplateBudgetBytes int64  `json:"template_budget_bytes"`
	TemplateEvictions   uint64 `json:"template_evictions"`
	TemplateBuilds      uint64 `json:"template_builds"`
	// Shared disk cache (zero-valued with DiskEnabled=false when no
	// -cache-dir was given). With it on, DiskMisses counts the simulations
	// started, aborted ones included, and DiskWriteErrors the results that
	// could not be published.
	DiskEnabled       bool   `json:"disk_enabled"`
	DiskHits          uint64 `json:"disk_hits"`
	DiskMisses        uint64 `json:"disk_misses"`
	DiskWrites        uint64 `json:"disk_writes"`
	DiskCorruptSkips  uint64 `json:"disk_corrupt_skips"`
	DiskStaleVersions uint64 `json:"disk_stale_versions"`
	DiskWriteErrors   uint64 `json:"disk_write_errors"`
}

// Gauges snapshots the point-in-time readings.
func (s *Server) Gauges() Gauges {
	queued, running, charged := s.sched.snapshot()
	residents, bytes, evictions, builds := s.tmpls.snapshot()
	g := Gauges{
		SchedQueued:         queued,
		SchedRunning:        running,
		SchedChargedBytes:   charged,
		SchedPeakBytes:      s.sched.peakCharged.Load(),
		SchedBudgetBytes:    s.cfg.MemBudget,
		SchedBudgetWaits:    s.sched.waits.Load(),
		TemplateResidents:   residents,
		TemplateBytes:       bytes,
		TemplateBudgetBytes: s.cfg.TemplateBudget,
		TemplateEvictions:   evictions,
		TemplateBuilds:      builds,
	}
	if s.disk != nil {
		st := s.disk.Stats()
		g.DiskEnabled = true
		g.DiskHits = st.Hits
		g.DiskMisses = st.Misses
		g.DiskWrites = st.Writes
		g.DiskCorruptSkips = st.CorruptSkips
		g.DiskStaleVersions = st.StaleVersions
		g.DiskWriteErrors = st.WriteErrors
	}
	return g
}

// DiskStats returns the shared disk cache's counters (zero when disabled).
func (s *Server) DiskStats() diskcache.Stats {
	if s.disk == nil {
		return diskcache.Stats{}
	}
	return s.disk.Stats()
}
