package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"hugeomp/internal/simsrv"
)

const (
	// serveClients is the closed-loop client count of both serve
	// workloads; the runner refuses a host with fewer CPUs.
	serveClients = 2

	// Sizing on the reference host (2-vCPU Xeon, two clients): one
	// serve_explore pass of 870 requests, and serve_replay's request rate.
	explorePassSeconds = 5.8
	replayOpsPerSecond = 20000

	probePerShape = 10
)

// post sends one request body to h in-process — no sockets, so the
// measurement is the service stack, not the loopback — and returns the
// status and answer.
func post(h http.Handler, body []byte) (int, []byte) {
	r, w := newRequest(body)
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func newRequest(body []byte) (*http.Request, *httptest.ResponseRecorder) {
	r := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return r, httptest.NewRecorder()
}

// serveExec posts each op's request to h; a non-200 answer fails the op, and
// with a gate every answer goes through its checks.
func serveExec(h http.Handler, g *gate) func(*op) (time.Duration, error) {
	return func(o *op) (time.Duration, error) {
		t := time.Now()
		code, body := post(h, o.Body)
		lat := time.Since(t)
		if code != http.StatusOK {
			return lat, fmt.Errorf("%s: status %d: %s", o.Key[:12], code, body)
		}
		if g == nil {
			return lat, nil
		}
		return lat, g.answer(o, body)
	}
}

// openServer starts a server on its own cache directory.
func openServer(dir string) (*server, error) {
	s, err := simsrv.NewServer(simsrv.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	return &server{s, dir}, nil
}

type server struct {
	*simsrv.Server
	dir string
}

// shut drains and closes the server.
func (s *server) shut() {
	s.Drain()
	s.Close()
}

// session wraps s for a timed phase; closing drains it and deletes its
// cache directory.
func (s *server) session() *session {
	return &session{server: s.Server, handler: s.Handler(), close: func() { s.shut(); os.RemoveAll(s.dir) }}
}

// serveExecFor is the serve workloads' executor: in-process POSTs to the
// session's handler, traced when sp is set.
func serveExecFor(s *session, g *gate, sp *spans, cov *coverage) func(*op) (time.Duration, error) {
	if sp == nil {
		return serveExec(s.handler, g)
	}
	return tracedServeExec(s.handler, g, sp, cov)
}

// serveProbe is the serve workloads' layer probe: the cold split of the
// list's first op at every page and team size, then the shared probe over
// probePerShape ops per template shape. A class-T fork's host time varies
// by half between identical runs, so the probe's per-op unexplained shares
// need a few hundred ops to settle.
func serveProbe(o options, ops []*op) func(g *gate, sp *spans) error {
	return func(g *gate, sp *spans) error {
		for _, v := range splitVariants(ops[0]) {
			res, _, err := coldSplit(v, sp)
			if err != nil {
				return err
			}
			d, err := digestResult(res)
			if err != nil {
				return err
			}
			g.record(v, d)
		}
		return probe(o.dir, sampleShapes(ops, probePerShape), g, sp)
	}
}

// newExplore is serve_explore: distinct class-T requests that miss every
// cache layer, against a server whose warm templates were built in setup.
func newExplore(o options) (*workload, error) {
	passes := min(len(barriers), max(1, int(math.Round(listSeconds(o)/explorePassSeconds))))
	ops, err := exploreOps(o.seed, passes)
	if err != nil {
		return nil, err
	}
	n := 0
	w := &workload{clients: serveClients, ops: ops, exec: serveExecFor, probe: serveProbe(o, ops)}
	w.setup = func() (*session, error) {
		n++
		s, err := openServer(filepath.Join(o.dir, fmt.Sprintf("explore-%d", n)))
		if err != nil {
			return nil, err
		}
		sess := s.session()
		// Warm-up: one request per template shape builds every warm
		// template the list needs; their iteration count keeps the
		// answers out of the timed list's keys.
		for _, req := range exploreShapes() {
			body, err := json.Marshal(req)
			if err != nil {
				sess.close()
				return nil, err
			}
			if code, ans := post(sess.handler, body); code != http.StatusOK {
				sess.close()
				return nil, fmt.Errorf("serve_explore warm-up: status %d: %s", code, ans)
			}
		}
		return sess, nil
	}
	return w, nil
}

// newReplay is serve_replay: a Zipf-skewed request list over a set of
// configs a previous server life already simulated into the disk cache.
func newReplay(o options) (*workload, error) {
	set, ops, err := replayOps(o.seed, int(listSeconds(o)*replayOpsPerSecond))
	if err != nil {
		return nil, err
	}
	n := 0
	w := &workload{clients: serveClients, ops: ops, exec: serveExecFor, probe: serveProbe(o, ops)}
	w.setup = func() (*session, error) {
		n++
		cacheDir := filepath.Join(o.dir, fmt.Sprintf("replay-%d", n))
		// Populate: a first server simulates the set and drains — the
		// sweep, soak or earlier service life that filled the cache. Then
		// the warm-up: a throwaway server reads back a quarter of the set,
		// so the measured server's own memo starts empty.
		for _, pass := range [][]*op{set, set[:len(set)/4]} {
			s, err := openServer(cacheDir)
			if err != nil {
				return nil, err
			}
			ph := runPhase(serveClients, pass, serveExec(s.Handler(), nil))
			s.shut()
			if n := ph.failedCount(); n > 0 {
				os.RemoveAll(cacheDir)
				return nil, fmt.Errorf("serve_replay populate: %d of %d requests failed", n, len(pass))
			}
		}
		s, err := openServer(cacheDir)
		if err != nil {
			return nil, err
		}
		return s.session(), nil
	}
	return w, nil
}

func (p phase) failedCount() int {
	n := 0
	for _, f := range p.failed {
		if f {
			n++
		}
	}
	return n
}
