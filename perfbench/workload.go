package main

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hugeomp/internal/simsrv"
)

// setupReps is how many times a run builds its set-up state; setup_s reports
// the median build, and the last one is measured.
const setupReps = 5

// workload is one benchmark workload: a fixed op list and the state it runs
// against.
type workload struct {
	clients int
	ops     []*op
	// setup builds fresh state — server, caches, warm templates — and runs
	// the untimed warm-up.
	setup func() (*session, error)
	// exec returns the executor for one timed phase on s: untraced when sp
	// is nil, else recording layer spans into sp and op coverage into cov.
	// An executor returns the op's latency — the time the caller waited for
	// the answer, excluding the gate's checks of it.
	exec func(s *session, g *gate, sp *spans, cov *coverage) func(*op) (time.Duration, error)
	// probe measures, in a traced run, the layers the timed phase does not
	// reach from outside.
	probe func(g *gate, sp *spans) error
}

// session is one set-up state; server and handler are nil for paper_sweep.
type session struct {
	server  *simsrv.Server
	handler http.Handler
	close   func()
}

// phase is one timed pass over the op list.
type phase struct {
	wall, cpu time.Duration
	lat       []float64 // ms, successful ops only
	failed    []bool    // by op index
	rt0, rt1  runtimeSample
}

// runPhase executes ops to completion on clients closed-loop clients: each
// client takes the next op in list order once its previous op is answered.
func runPhase(clients int, ops []*op, exec func(*op) (time.Duration, error)) phase {
	p := phase{failed: make([]bool, len(ops))}
	lat := make([]float64, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	p.rt0 = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				d, err := exec(ops[i])
				lat[i] = float64(d.Nanoseconds()) / 1e6
				p.failed[i] = err != nil
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rt1 = readRuntime()
	for i, l := range lat {
		if !p.failed[i] {
			p.lat = append(p.lat, l)
		}
	}
	return p
}

// setUp builds the workload's state setupReps times and returns the last,
// with setup_s: process start to now, counting the median build once. It
// then returns the freed heap to the OS and restarts the peak-RSS mark, so
// that peak_rss_mb covers the timed phase, not set-up's discarded builds;
// timedRSS reports whether the kernel allowed the restart.
func (w *workload) setUp() (s *session, setupS float64, timedRSS bool, err error) {
	var builds []float64
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.close()
		}
		t := time.Now()
		if s, err = w.setup(); err != nil {
			return nil, 0, false, err
		}
		runtime.GC()
		builds = append(builds, time.Since(t).Seconds())
	}
	debug.FreeOSMemory()
	timedRSS = resetPeakRSS()
	total := 0.0
	for _, b := range builds {
		total += b
	}
	return s, time.Since(processStart).Seconds() - total + median(builds), timedRSS, nil
}

// measure runs the workload once: set-up, one timed phase and the
// correctness gate; a traced run adds a second, traced phase on fresh state
// and the layer probe, and reports per-layer metrics instead.
func (w *workload) measure(o options, g *gate) (result, error) {
	s, setupS, timedRSS, err := w.setUp()
	if err != nil {
		return result{}, err
	}
	ph := runPhase(w.clients, w.ops, w.exec(s, g, nil, nil))
	s.close()
	failed := ph.failed

	var layers map[string]metric
	if o.trace {
		sp, cov := newSpans(), &coverage{}
		g.counts = map[string]counts{}
		ts, err := w.setup()
		if err != nil {
			return result{}, err
		}
		var d serverDelta
		if ts.server != nil {
			d.c0, d.g0 = ts.server.Counters(), ts.server.Gauges()
		}
		tph := runPhase(w.clients, w.ops, w.exec(ts, g, sp, cov))
		if ts.server != nil {
			d.c1, d.g1 = ts.server.Counters(), ts.server.Gauges()
		}
		ts.close()
		if err := w.probe(g, sp); err != nil {
			return result{}, err
		}
		for i, f := range tph.failed {
			failed[i] = failed[i] || f
		}
		layers = layerMetrics(w.ops, g, sp, cov, d, ph, tph)
	}

	wrong := g.judge(runtime.GOMAXPROCS(0))
	res := result{Attempted: len(w.ops)}
	for i, op := range w.ops {
		if failed[i] || wrong[op.Key] {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0

	distinct := map[string]bool{}
	for _, op := range w.ops {
		distinct[op.Key] = true
	}
	tail := tailQuantile(len(ph.lat))
	printInfo("ops", map[string]any{
		"workload": o.workload, "seed": o.seed, "ops": len(w.ops), "distinct": len(distinct),
		"list_sha256": listHash(w.ops), "lat_samples": len(ph.lat),
		"lat_tail": fmt.Sprintf("p%g", 100*tail), "wrong_keys": len(wrong),
		"peak_rss": map[bool]string{true: "timed phase", false: "whole process"}[timedRSS],
	})

	if o.trace {
		res.Metrics = layers
		return res, nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	res.Metrics = e2eMetrics(setupS, ph, len(w.ops), rss)
	return res, nil
}

// e2eMetrics are an untraced run's end-to-end metrics, in host time.
func e2eMetrics(setupS float64, ph phase, attempted int, rssMB float64) map[string]metric {
	lat := append([]float64(nil), ph.lat...)
	sort.Float64s(lat)
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {ph.opsPerSecond(), "1/s"},
		"lat_p50_ms":    {quantile(lat, 0.5), "ms"},
		"lat_tail_ms":   {quantile(lat, tailQuantile(len(lat))), "ms"},
		"cpu_ms_per_op": {float64(ph.cpu.Microseconds()) / 1e3 / float64(attempted), "ms"},
		"peak_rss_mb":   {rssMB, "MB"},
	}
}

// opsPerSecond is completed ops over the phase's wall time.
func (p phase) opsPerSecond() float64 {
	return float64(len(p.lat)) / p.wall.Seconds()
}
