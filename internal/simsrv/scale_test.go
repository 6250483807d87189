package simsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
	"hugeomp/internal/units"
)

// TestSchedPacking: the scheduler admits sessions up to the footprint
// budget, queues the overflow FIFO, and admits waiters as charges release.
func TestSchedPacking(t *testing.T) {
	s := newSched(8, 100, 4)
	ctx := context.Background()
	if err := s.acquire(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if err := s.acquire(ctx, 40); err != nil {
		t.Fatal(err)
	}
	// 100/100 charged: the next session must wait.
	admitted := make(chan error, 1)
	go func() { admitted <- s.acquire(ctx, 50) }()
	select {
	case err := <-admitted:
		t.Fatalf("over-budget acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if q, r, c := s.snapshot(); q != 1 || r != 2 || c != 100 {
		t.Fatalf("snapshot = queued %d, running %d, charged %d", q, r, c)
	}
	s.release(60)
	if err := <-admitted; err != nil {
		t.Fatalf("waiter not admitted after release: %v", err)
	}
	if q, r, c := s.snapshot(); q != 0 || r != 2 || c != 90 {
		t.Fatalf("after release: queued %d, running %d, charged %d", q, r, c)
	}
	if s.waits.Load() != 1 {
		t.Errorf("waits = %d, want 1", s.waits.Load())
	}
}

// TestSchedWorkerSlots: with an unbounded byte budget the worker slots alone
// bound concurrency; every session still runs, never more than workers at
// once.
func TestSchedWorkerSlots(t *testing.T) {
	const workers, sessions = 3, 40
	s := newSched(workers, 0, sessions)
	var running, ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.acquire(context.Background(), 1); err != nil {
				t.Error(err)
				return
			}
			if n := running.Add(1); n > workers {
				t.Errorf("%d sessions running on %d worker slots", n, workers)
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			ran.Add(1)
			s.release(1)
		}()
	}
	wg.Wait()
	if ran.Load() != sessions {
		t.Errorf("ran %d sessions, want %d", ran.Load(), sessions)
	}
	if q, r, c := s.snapshot(); q != 0 || r != 0 || c != 0 {
		t.Fatalf("slots leaked: queued %d, running %d, charged %d", q, r, c)
	}
}

// TestSchedIdleOverride: a request larger than the whole budget is admitted
// when nothing is charged — the budget bounds packing, it must not make a
// class unservable.
func TestSchedIdleOverride(t *testing.T) {
	s := newSched(1, 100, 4)
	if err := s.acquire(context.Background(), 1000); err != nil {
		t.Fatalf("idle oversized acquire: %v", err)
	}
	s.release(1000)
}

// TestSchedSaturationAndAbort: a full waiter queue refuses with ErrSaturated;
// a waiter whose context dies leaves with an omp.ErrAborted-wrapping error
// and no leaked charge.
func TestSchedSaturationAndAbort(t *testing.T) {
	s := newSched(8, 100, 1)
	ctx := context.Background()
	if err := s.acquire(ctx, 100); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	waiter := make(chan error, 1)
	go func() { waiter <- s.acquire(dead, 10) }()
	waitQueued(t, s, 1)
	if err := s.acquire(ctx, 10); !errors.Is(err, ErrSaturated) {
		t.Fatalf("full queue acquire = %v, want ErrSaturated", err)
	}
	cancel()
	if err := <-waiter; !errors.Is(err, omp.ErrAborted) {
		t.Fatalf("aborted waiter = %v, want omp.ErrAborted", err)
	}
	s.release(100)
	if q, r, c := s.snapshot(); q != 0 || r != 0 || c != 0 {
		t.Fatalf("charge leaked: queued %d, running %d, charged %d", q, r, c)
	}
}

// TestSchedFIFO: a small session that would fit does not overtake a large
// one queued ahead of it, and is admitted as soon as the large one leaves.
func TestSchedFIFO(t *testing.T) {
	s := newSched(8, 100, 4)
	ctx := context.Background()
	if err := s.acquire(ctx, 60); err != nil {
		t.Fatal(err)
	}
	bigCtx, cancelBig := context.WithCancel(ctx)
	big := make(chan error, 1)
	go func() { big <- s.acquire(bigCtx, 50) }()
	waitQueued(t, s, 1)
	small := make(chan error, 1)
	go func() { small <- s.acquire(ctx, 30) }()
	waitQueued(t, s, 2)
	cancelBig()
	if err := <-big; !errors.Is(err, omp.ErrAborted) {
		t.Fatalf("cancelled head = %v, want omp.ErrAborted", err)
	}
	select {
	case err := <-small:
		if err != nil {
			t.Fatalf("waiter behind the cancelled head: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter behind the cancelled head not admitted when the head left")
	}
	if q, r, c := s.snapshot(); q != 0 || r != 2 || c != 90 {
		t.Fatalf("after the head left: queued %d, running %d, charged %d", q, r, c)
	}
}

// waitClosed polls until close has begun on s.
func waitClosed(t *testing.T, s *sched) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("close never began")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued polls until n sessions wait in s.
func waitQueued(t *testing.T, s *sched, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if q, _, _ := s.snapshot(); q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d queued sessions", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTmplPoolEviction: settling templates past the byte budget evicts the
// least recently used, never the one just settled — a budget smaller than one
// template degrades to a single-resident pool.
func TestTmplPoolEviction(t *testing.T) {
	p := newTmplPool(250)
	keys := []tmplKey{{Kernel: "CG"}, {Kernel: "MG"}, {Kernel: "SP"}}
	for _, k := range keys {
		e := p.get(k)
		e.bytes = 100
		p.settle(k, e)
	}
	// 3×100 > 250: the LRU (CG) must be gone, MG and SP resident.
	if p.lookup(keys[0]) != nil {
		t.Error("LRU entry survived past the budget")
	}
	residents, bytes, evictions, builds := p.snapshot()
	if residents != 2 || bytes != 200 || evictions != 1 || builds != 3 {
		t.Fatalf("snapshot = %d residents, %d bytes, %d evictions, %d builds",
			residents, bytes, evictions, builds)
	}
	// Touch MG, settle a new entry: SP (now LRU) is the victim.
	p.get(keys[1])
	e := p.get(tmplKey{Kernel: "FT"})
	e.bytes = 100
	p.settle(tmplKey{Kernel: "FT"}, e)
	if p.lookup(keys[2]) != nil {
		t.Error("recency not honored: SP should have been evicted")
	}
	if p.lookup(keys[1]) == nil {
		t.Error("touched entry was evicted")
	}
	// An entry bigger than the whole budget still resides alone.
	tiny := newTmplPool(10)
	big := tiny.get(keys[0])
	big.bytes = 1000
	tiny.settle(keys[0], big)
	if tiny.lookup(keys[0]) == nil {
		t.Error("oversized template not resident in its own pool")
	}
}

// TestServerTemplateBudget: a server whose template budget fits one template
// serves distinct kernels correctly while cycling the pool, and reports the
// evictions in its gauges.
func TestServerTemplateBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{TemplateBudget: npb.TemplateBytes(npb.ClassT)})
	for _, kernel := range []string{"CG", "MG", "CG"} {
		req := baseReq
		req.Kernel = kernel
		if resp, body := postRun(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", kernel, resp.StatusCode, body)
		}
	}
	g := s.Gauges()
	if g.TemplateResidents != 1 {
		t.Errorf("residents = %d, want 1 under a one-template budget", g.TemplateResidents)
	}
	if g.TemplateEvictions == 0 {
		t.Error("no evictions under a one-template budget across two kernels")
	}
	if g.TemplateBuilds < 2 {
		t.Errorf("builds = %d, want >= 2", g.TemplateBuilds)
	}
}

// TestServerMemBudget: sessions run under a footprint budget sized for one
// fork at a time; concurrent distinct requests all complete and the waits
// show up in the gauges.
func TestServerMemBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{MemBudget: npb.ForkBytes(npb.ClassT), Queue: 8})
	reqs := []Request{
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 1, Policy: "4KB"},
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 1, Policy: "2MB"},
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 2, Policy: "4KB"},
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 2, Policy: "2MB"},
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			if resp, body := postRun(t, ts, req); resp.StatusCode != http.StatusOK {
				t.Errorf("%+v: %d %s", req, resp.StatusCode, body)
			}
		}(reqs[i])
	}
	wg.Wait()
	g := s.Gauges()
	if g.SchedChargedBytes != 0 || g.SchedRunning != 0 {
		t.Errorf("charges leaked: %d bytes, %d running", g.SchedChargedBytes, g.SchedRunning)
	}
	if g.SchedPeakBytes > npb.ForkBytes(npb.ClassT) {
		t.Errorf("peak %d exceeded the one-fork budget %d",
			g.SchedPeakBytes, npb.ForkBytes(npb.ClassT))
	}
}

// TestStatsGauges: GET /stats exposes the scheduler, template-pool and
// disk-cache gauges with the configured budgets.
func TestStatsGauges(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		CacheDir:       dir,
		MemBudget:      512 * units.MB,
		TemplateBudget: 2 * units.GB,
	})
	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Counters Counters `json:"counters"`
		Gauges   Gauges   `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	g := stats.Gauges
	if g.SchedBudgetBytes != 512*units.MB || g.TemplateBudgetBytes != 2*units.GB {
		t.Errorf("budgets not reported: sched %d, template %d", g.SchedBudgetBytes, g.TemplateBudgetBytes)
	}
	if g.TemplateResidents != 1 || g.TemplateBytes != npb.TemplateBytes(npb.ClassT) {
		t.Errorf("template gauges: %d residents, %d bytes", g.TemplateResidents, g.TemplateBytes)
	}
	if g.SchedPeakBytes != npb.ForkBytes(npb.ClassT) {
		t.Errorf("peak charged = %d, want one fork (%d)", g.SchedPeakBytes, npb.ForkBytes(npb.ClassT))
	}
	if !g.DiskEnabled || g.DiskMisses != 1 || g.DiskWrites != 1 {
		t.Errorf("disk gauges after one cold run: %+v", g)
	}
	if in := s.Gauges(); in != g {
		t.Errorf("in-process gauges differ from /stats: %+v vs %+v", in, g)
	}
}

// TestServerWarmRestartFromDisk: a second server on the same cache directory
// — a restart, or another process — answers a previously computed request as
// a cache hit without running a simulation. One config is served three ways
// — a miss on the first server, a disk hit and then a memo hit on the second
// — and every answer's result section is byte-equal to json.Marshal of a
// cold npb.Run, while every whole body is exactly what encoding its decoded
// Response writes: the hand-written envelope cannot drift from the type.
func TestServerWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	cold := coldResultJSON(t, baseReq)
	var key string
	for i, tier := range []struct {
		name   string
		ts     *httptest.Server
		cached bool
	}{{"miss", ts1, false}, {"disk hit", ts2, true}, {"memo hit", ts2, true}} {
		resp, body := postRun(t, tier.ts, baseReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tier.name, resp.StatusCode, body)
		}
		r := decodeResponse(t, body)
		if r.Cached != tier.cached {
			t.Errorf("%s: cached = %v, want %v", tier.name, r.Cached, tier.cached)
		}
		if i == 0 {
			key = r.Key
		} else if r.Key != key {
			t.Errorf("%s: keyed %s, the miss %s", tier.name, r.Key, key)
		}
		var raw struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw.Result, cold) {
			t.Errorf("%s: result section differs from a cold npb.Run:\ncold:   %s\nserved: %s", tier.name, cold, raw.Result)
		}
		reencoded, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(reencoded, '\n'); !bytes.Equal(body, want) {
			t.Errorf("%s: body is not its Response's encoding:\nbody: %s\nwant: %s", tier.name, body, want)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d for a %d-byte body", tier.name, resp.ContentLength, len(body))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tier.name, ct)
		}
	}
	ctr := s2.Counters()
	if ctr.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2", ctr.CacheHits)
	}
	g := s2.Gauges()
	if g.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1 (%+v)", g.DiskHits, g)
	}
	if g.TemplateBuilds != 0 {
		t.Errorf("warm restart built %d templates for a cached answer", g.TemplateBuilds)
	}
}
