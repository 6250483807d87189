package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/memo"
	"hugeomp/internal/memo/diskcache"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
	"hugeomp/internal/simsrv"
	"hugeomp/internal/units"
)

// The traced run. Spans are recorded on the benchmark's side of each
// layer's public call; nothing inside the program is instrumented, and the
// end-to-end metrics never come from a traced run.

// spans collects span durations by layer, and per-access tallies of
// simulated runs; safe for concurrent clients.
type spans struct {
	mu   sync.Mutex
	d    map[string][]float64   // layer -> durations, ms
	acc  map[string]*[2]float64 // class -> {run host ns, simulated accesses}
	left map[string][]float64   // serve outcome -> probe ops' unexplained shares
}

func newSpans() *spans {
	return &spans{d: map[string][]float64{}, acc: map[string]*[2]float64{}, left: map[string][]float64{}}
}

func (s *spans) add(layer string, d time.Duration) {
	s.mu.Lock()
	s.d[layer] = append(s.d[layer], float64(d.Nanoseconds())/1e6)
	s.mu.Unlock()
}

// timeIt runs f under a span named layer and returns the span's length.
func (s *spans) timeIt(layer string, f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	d := time.Since(t)
	s.add(layer, d)
	return d, err
}

func (s *spans) median(layer string) float64 { return median(s.d[layer]) }

// leftOver notes the share of one served probe op's wall time that the
// layer calls its path makes, each timed alone on the same config, leave
// unexplained.
func (s *spans) leftOver(outcome string, wall time.Duration, explainedMS float64) {
	share := 1 - explainedMS/(float64(wall.Nanoseconds())/1e6)
	s.mu.Lock()
	s.left[outcome] = append(s.left[outcome], share)
	s.mu.Unlock()
}

// coverage is op attribution over the traced phase. A cold-run op records
// its wall time and the part its layer spans covered; a served op records
// its wall time under how the server answered it. A nil coverage records
// nothing.
type coverage struct {
	mu            sync.Mutex
	opMS, spanned float64
	served        map[string]float64 // outcome -> wall ms
}

func (c *coverage) op(wall, covered time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.opMS += float64(wall.Nanoseconds()) / 1e6
	c.spanned += float64(covered.Nanoseconds()) / 1e6
	c.mu.Unlock()
}

func (c *coverage) serve(outcome string, wall time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.served == nil {
		c.served = map[string]float64{}
	}
	c.served[outcome] += float64(wall.Nanoseconds()) / 1e6
	c.mu.Unlock()
}

// unattributedPct is the share of the traced phase's op time that no layer
// accounts for. A cold-run op measures it directly: wall time less its
// spans. A served op is spanned only as a whole, so each outcome's share is
// the median over the probe's served ops of that outcome (see probe), and
// the traced phase's op time by outcome weights the shares.
func unattributedPct(cov *coverage, sp *spans) float64 {
	if len(cov.served) == 0 {
		if cov.opMS == 0 {
			return 0
		}
		return 100 * (cov.opMS - cov.spanned) / cov.opMS
	}
	var total, left float64
	for _, outcome := range []string{"miss", "disk_hit", "memo_hit"} {
		if shares := sp.left[outcome]; len(shares) > 0 {
			total += cov.served[outcome]
			left += cov.served[outcome] * median(shares)
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * left / total
}

// tallyAccess adds one run's host time and simulated accesses to class.
func (s *spans) tallyAccess(class string, run time.Duration, accesses uint64) {
	s.mu.Lock()
	a := s.acc[class]
	if a == nil {
		a = new([2]float64)
		s.acc[class] = a
	}
	a[0] += float64(run.Nanoseconds())
	a[1] += float64(accesses)
	s.mu.Unlock()
}

func (s *spans) nsPerAccess(class string) float64 {
	if a := s.acc[class]; a != nil && a[1] > 0 {
		return a[0] / a[1]
	}
	return 0
}

// work tallies the deterministic work counts of simulated results.
type work struct {
	ops, accesses, walks, regionEntries uint64
}

func (w *work) add(c counts) {
	w.ops++
	w.accesses += c.accesses
	w.walks += c.walks
	w.regionEntries += c.regionEntries
}

func (w work) perOp(n uint64) float64 { return float64(n) / float64(max(w.ops, 1)) }

// counts are one result's deterministic work counts.
type counts struct{ accesses, walks, regionEntries uint64 }

func countsOf(res npb.Result) counts {
	c := counts{
		accesses: res.Counters.Loads + res.Counters.Stores,
		walks:    res.Counters.DTLBWalks4K + res.Counters.DTLBWalks2M,
	}
	for _, r := range res.Regions {
		c.regionEntries += r.Entries
	}
	return c
}

// sharedBytes mirrors npb's per-class shared-region size, which npb.RunOn
// builds its system with; a drift changes every traced result, and the
// digest gate then reports it.
func sharedBytes(c npb.Class) int64 {
	if c == npb.ClassS {
		return 16 * units.MB
	}
	return 8 * units.MB
}

// coldSplit is npb.Run taken apart into the public calls it is made of —
// core.NewSystem, Kernel.Setup, Seal, NewRT, Kernel.Run, Kernel.Verify —
// with a span around each. It returns the result, which must digest like
// npb.Run's, and the time the spans covered.
func coldSplit(o *op, sp *spans) (npb.Result, time.Duration, error) {
	k, err := npb.New(o.Kernel)
	if err != nil {
		return npb.Result{}, 0, err
	}
	cfg := o.Cfg
	shared := sharedBytes(cfg.Class)
	var (
		sys     *core.System
		rt      *omp.RT
		covered time.Duration
	)
	steps := []struct {
		layer string
		f     func() error
	}{
		{"core.new_system", func() (err error) {
			sys, err = core.NewSystem(core.Config{
				Model: cfg.Model, Policy: cfg.Policy, Sharing: cfg.Sharing, Barrier: cfg.Barrier,
				SharedBytes: shared, PhysBytes: 4 * shared, HugePages: cfg.HugePages,
			})
			return err
		}},
		{"npb.setup", func() error { return k.Setup(sys, cfg.Class) }},
		{"core.seal", func() error { sys.Seal(); return nil }},
		{"core.new_rt", func() (err error) { rt, err = sys.NewRT(cfg.Threads); return err }},
		{"npb.run", func() error {
			iters := cfg.Iterations
			if iters == 0 {
				iters = k.DefaultIterations(cfg.Class)
			}
			return k.Run(rt, iters)
		}},
		{"npb.verify", k.Verify},
	}
	var run time.Duration
	for _, st := range steps {
		d, err := sp.timeIt(st.layer, st.f)
		if err != nil {
			return npb.Result{}, covered, fmt.Errorf("%s: %w", st.layer, err)
		}
		covered += d
		if st.layer == "npb.run" {
			run = d
		}
	}
	res := npb.Result{
		Kernel: k.Name(), Class: cfg.Class, Model: cfg.Model.Name, Threads: cfg.Threads, Policy: cfg.Policy,
		Cycles: rt.WallCycles(), Seconds: rt.Seconds(), Counters: rt.TotalCounters(), Regions: rt.RegionProfiles(),
		Degraded: sys.Degraded, OS: sys.OSCounters(),
	}
	acc := countsOf(res).accesses
	if p, ok := map[core.PagePolicy]string{core.Policy4K: "4KB", core.Policy2M: "2MB"}[cfg.Policy]; ok {
		sp.tallyAccess(p, run, acc)
	}
	sp.tallyAccess(fmt.Sprintf("t%d", cfg.Threads), run, acc)
	return res, covered, nil
}

// splitVariants re-runs o cold at every page size and team size the
// ns-per-access breakdown reports — {4KB, 2MB} × {1, 2, 4, 8} threads on
// XeonHT, the one model with eight contexts — for workloads whose own ops
// are not cold runs.
func splitVariants(o *op) []*op {
	var out []*op
	for _, policy := range []core.PagePolicy{core.Policy4K, core.Policy2M} {
		for _, threads := range []int{1, 2, 4, 8} {
			v := *o
			v.Cfg.Model = machine.XeonHT()
			v.Cfg.Policy, v.Cfg.Threads = policy, threads
			v.Key, v.Body = npb.RunKey(v.Kernel, v.Cfg), nil
			out = append(out, &v)
		}
	}
	return out
}

// serverDelta is the measured server's counter movement over a phase; zero
// for paper_sweep, whose timed phase talks to no server.
type serverDelta struct {
	c0, c1 simsrv.Counters
	g0, g1 simsrv.Gauges
}

func (d serverDelta) metrics(m map[string]metric) {
	completed := d.c1.Completed - d.c0.Completed
	answered := 0.0
	if completed > 0 {
		answered = 100 * float64(d.c1.CacheHits-d.c0.CacheHits) / float64(completed)
	}
	m["simsrv.template_builds"] = metric{float64(d.g1.TemplateBuilds - d.g0.TemplateBuilds), "count"}
	m["simsrv.sched_waits"] = metric{float64(d.g1.SchedBudgetWaits - d.g0.SchedBudgetWaits), "count"}
	m["simsrv.rejected"] = metric{float64(d.c1.Rejected - d.c0.Rejected), "count"}
	m["simsrv.cache_answered_pct"] = metric{answered, "%"}
	m["diskcache.hits"] = metric{float64(d.g1.DiskHits - d.g0.DiskHits), "count"}
	m["diskcache.misses"] = metric{float64(d.g1.DiskMisses - d.g0.DiskMisses), "count"}
	m["diskcache.writes"] = metric{float64(d.g1.DiskWrites - d.g0.DiskWrites), "count"}
}

var cachedTrue = []byte(`"cached":true`)

// tracedServeExec is serveExec with a span around ServeHTTP, classified by
// how the server answered: a miss (simulated), the first cached answer for
// a key (the disk layer), or a repeat (the memo). cov records each answered
// op's wall time under that outcome.
func tracedServeExec(h http.Handler, g *gate, sp *spans, cov *coverage) func(*op) (time.Duration, error) {
	var mu sync.Mutex
	seen := map[string]bool{}
	return func(o *op) (time.Duration, error) {
		t := time.Now()
		r, w := newRequest(o.Body)
		s := time.Now()
		h.ServeHTTP(w, r)
		serve := time.Since(s)
		lat := time.Since(t)
		body := w.Body.Bytes()
		if w.Code != http.StatusOK {
			return lat, fmt.Errorf("%s: status %d: %s", o.Key[:12], w.Code, body)
		}
		mu.Lock()
		first := !seen[o.Key]
		seen[o.Key] = true
		mu.Unlock()
		outcome := "memo_hit"
		switch {
		case !bytes.Contains(body[:min(len(body), 128)], cachedTrue):
			outcome = "miss"
		case first:
			outcome = "disk_hit"
		}
		sp.add("simsrv.serve."+outcome, serve)
		cov.serve(outcome, lat)
		return lat, g.answer(o, body)
	}
}

// probe replays sample ops through each layer's public call, one layer at a
// time: npb.RunKey, npb.NewWarm, npb.Warm.RunOn, diskcache.Store.Put/Get,
// memo.Cache.GetOrCompute, and — on servers of its own — simsrv's disk-hit,
// memo-hit and miss paths. Every result it simulates or is served goes
// through the gate.
//
// Each served probe op is then set against the layer calls its path makes,
// timed alone on the same config: every answer is keyed by npb.RunKey and
// decoded from the memo's bytes; a disk hit first reads them with
// diskcache.Get, a miss simulates with Warm.RunOn and publishes with
// diskcache.Put. The share of the op those calls leave unexplained is
// simsrv's own decode, compile, admission and encode, memo bookkeeping, and
// building the request.
func probe(dir string, sample []*op, g *gate, sp *spans) error {
	// Per sample op, the time of each layer call, ms.
	keyMS := make([]float64, len(sample))
	runMS := make([]float64, len(sample))
	putMS := make([]float64, len(sample))
	getMS := make([]float64, len(sample))
	memoMS := make([]float64, len(sample))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	// npb.RunKey takes microseconds: time a batch per key.
	const keyReps = 50
	for i, o := range sample {
		t := time.Now()
		for r := 0; r < keyReps; r++ {
			npb.RunKey(o.Kernel, o.Cfg)
		}
		d := time.Since(t) / keyReps
		sp.add("npb.run_key", d)
		keyMS[i] = ms(d)
	}

	// Warm templates, one per shape, and a forked run of every sample op;
	// their results feed the cache layers. A template's first fork is left
	// untimed, as the serve workloads' warm-up takes it: the timed forks
	// are the kind a served miss makes.
	payloads := make([][]byte, len(sample))
	warms := map[shape]*npb.Warm{}
	for i, o := range sample {
		w := warms[shapeOf(o)]
		forks := 1
		if w == nil {
			if _, err := sp.timeIt("npb.warm_build", func() (err error) {
				w, err = npb.NewWarm(o.Kernel, o.Cfg)
				return err
			}); err != nil {
				return err
			}
			warms[shapeOf(o)] = w
			forks = 2
		}
		var res npb.Result
		for f := forks; f > 0; f-- {
			run := func() (err error) {
				res, _, _, err = w.RunOn(o.Cfg)
				return err
			}
			if f == 1 {
				d, err := sp.timeIt("npb.warm_run", run)
				if err != nil {
					return err
				}
				runMS[i] = ms(d)
			} else if err := run(); err != nil {
				return err
			}
			d, err := digestResult(res)
			if err != nil {
				return err
			}
			g.record(o, d)
		}
		var err error
		if payloads[i], err = json.Marshal(res); err != nil {
			return err
		}
	}

	// The disk layer: publish (write, fsync, rename, dir sync), then read
	// back with its checksum.
	diskDir := filepath.Join(dir, "probe-disk")
	defer os.RemoveAll(diskDir)
	store, err := diskcache.Open(diskDir)
	if err != nil {
		return err
	}
	for i, o := range sample {
		d, err := sp.timeIt("diskcache.put", func() error { return store.Put(o.Key, payloads[i]) })
		if err != nil {
			return err
		}
		putMS[i] = ms(d)
	}
	for i, o := range sample {
		d, err := sp.timeIt("diskcache.get", func() error {
			if _, ok := store.Get(o.Key); !ok {
				return fmt.Errorf("probe: diskcache lost %.12s", o.Key)
			}
			return nil
		})
		if err != nil {
			return err
		}
		getMS[i] = ms(d)
	}

	// The memo layer: one computing miss, then hits, each decoding a fresh
	// npb.Result.
	c := memo.New()
	for i, o := range sample {
		var res npb.Result
		compute := func() (any, error) { return json.RawMessage(payloads[i]), nil }
		var hits []float64
		for rep := 0; rep < 6; rep++ {
			t := time.Now()
			if _, err := c.GetOrCompute(o.Key, compute, &res); err != nil {
				return err
			}
			if d := time.Since(t); rep > 0 {
				sp.add("memo.hit", d)
				hits = append(hits, ms(d))
			}
		}
		memoMS[i] = median(hits)
	}

	// simsrv over the populated disk cache: the first ask is a disk hit,
	// the repeats memo hits.
	s, err := openServer(diskDir)
	if err != nil {
		return err
	}
	exec := tracedServeExec(s.Handler(), g, sp, nil)
	for i, o := range sample {
		for rep := 0; rep < 4; rep++ {
			wall, err := exec(o)
			if err != nil {
				s.shut()
				return err
			}
			if rep == 0 {
				sp.leftOver("disk_hit", wall, keyMS[i]+getMS[i]+memoMS[i])
			} else {
				sp.leftOver("memo_hit", wall, keyMS[i]+memoMS[i])
			}
		}
	}
	s.shut()

	// The miss path on warm templates: a fresh server on an empty cache
	// builds each shape's template on a request the sample never makes
	// (more iterations than any sample op), then simulates and publishes
	// the sampled requests.
	s, err = openServer(filepath.Join(dir, "probe-miss"))
	if err != nil {
		return err
	}
	defer func() { s.shut(); os.RemoveAll(s.dir) }()
	iters := 1
	for _, o := range sample {
		iters = max(iters, o.Cfg.Iterations)
	}
	built := map[shape]bool{}
	exec = tracedServeExec(s.Handler(), g, sp, nil)
	for i, o := range sample {
		if !built[shapeOf(o)] {
			built[shapeOf(o)] = true
			var req simsrv.Request
			if err := json.Unmarshal(o.Body, &req); err != nil {
				return err
			}
			req.Iterations = iters + 1
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			if code, ans := post(s.Handler(), body); code != http.StatusOK {
				return fmt.Errorf("probe: template request: status %d: %s", code, ans)
			}
		}
		wall, err := exec(o)
		if err != nil {
			return err
		}
		sp.leftOver("miss", wall, keyMS[i]+runMS[i]+putMS[i]+memoMS[i])
	}
	return nil
}

// shape is a warm template's construction shape within one workload.
type shape struct {
	kernel string
	policy core.PagePolicy
}

func shapeOf(o *op) shape { return shape{o.Kernel, o.Cfg.Policy} }

// sampleShapes picks, in list order, the first perShape distinct ops of
// each construction shape: one template build per shape, and a forked run
// of every pick.
func sampleShapes(ops []*op, perShape int) []*op {
	taken := map[shape]int{}
	seen := map[string]bool{}
	var out []*op
	for _, o := range ops {
		if s := shapeOf(o); !seen[o.Key] && taken[s] < perShape {
			seen[o.Key] = true
			taken[s]++
			out = append(out, o)
		}
	}
	return out
}

// layerMetrics assembles a traced run's per-layer metrics: spans from the
// traced phase (attributed in cov) and the probe, work counts from every
// op's result, the measured server's counter deltas, and runtime deltas
// over the untraced phase.
func layerMetrics(ops []*op, g *gate, sp *spans, cov *coverage, d serverDelta, untraced, traced phase) map[string]metric {
	var wk work
	for _, o := range ops {
		wk.add(g.counts[o.Key])
	}
	ms := func(layer string) metric { return metric{sp.median(layer), "ms"} }
	us := func(layer string) metric { return metric{1e3 * sp.median(layer), "us"} }
	m := map[string]metric{
		"core.new_system_ms":        ms("core.new_system"),
		"npb.setup_ms":              ms("npb.setup"),
		"npb.run_ms":                ms("npb.run"),
		"npb.verify_ms":             ms("npb.verify"),
		"machine.accesses_per_op":   {wk.perOp(wk.accesses), "count"},
		"machine.dtlb_walks_per_op": {wk.perOp(wk.walks), "count"},
		"omp.region_entries_per_op": {wk.perOp(wk.regionEntries), "count"},
		"npb.warm_build_ms":         ms("npb.warm_build"),
		"npb.warm_run_ms":           ms("npb.warm_run"),
		"diskcache.put_ms":          ms("diskcache.put"),
		"diskcache.get_us":          us("diskcache.get"),
		"memo.hit_us":               us("memo.hit"),
		"npb.run_key_us":            us("npb.run_key"),
		"simsrv.serve_ms":           ms("simsrv.serve.miss"),
		"simsrv.serve_us.memo_hit":  us("simsrv.serve.memo_hit"),
		"simsrv.serve_us.disk_hit":  us("simsrv.serve.disk_hit"),
		"trace.unattributed_pct":    {unattributedPct(cov, sp), "%"},
		"trace.overhead_pct":        {100 * (1 - traced.opsPerSecond()/untraced.opsPerSecond()), "%"},
		"runtime.alloc_kb_per_op":   {float64(untraced.rt1.allocBytes-untraced.rt0.allocBytes) / 1024 / float64(len(ops)), "KB"},
		"runtime.gc_cpu_pct":        {100 * (untraced.rt1.gcCPU - untraced.rt0.gcCPU) / (untraced.rt1.totalCPU - untraced.rt0.totalCPU), "%"},
	}
	// simsrv's own share of a memo hit: the serve span less the layer
	// calls that path makes (key hashing, memo lookup and decode).
	m["simsrv.self_us"] = metric{m["simsrv.serve_us.memo_hit"].Value - m["memo.hit_us"].Value - m["npb.run_key_us"].Value, "us"}
	for _, c := range []string{"4KB", "2MB", "t1", "t2", "t4", "t8"} {
		m["npb.run_ns_per_access."+c] = metric{sp.nsPerAccess(c), "ns"}
	}
	d.metrics(m)
	return m
}
