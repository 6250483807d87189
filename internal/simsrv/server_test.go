package simsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
		s.Close()
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeResponse(t *testing.T, body []byte) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decode response: %v\n%s", err, body)
	}
	return r
}

func errKind(t *testing.T, body []byte) errorKind {
	t.Helper()
	var e map[string]ErrorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decode error body: %v\n%s", err, body)
	}
	return e["error"].Kind
}

var baseReq = Request{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 2, Policy: "2MB"}

// TestServerMemoizedRetry: an identical retry is answered from the memo with
// a byte-identical result — the idempotency contract.
func TestServerMemoizedRetry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp1, body1 := postRun(t, ts, baseReq)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp1.StatusCode, body1)
	}
	r1 := decodeResponse(t, body1)
	if r1.Cached {
		t.Error("first run reported cached")
	}
	resp2, body2 := postRun(t, ts, baseReq)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry: %d %s", resp2.StatusCode, body2)
	}
	r2 := decodeResponse(t, body2)
	if !r2.Cached {
		t.Error("retry not answered from the memo")
	}
	if r1.Key != r2.Key || !reflect.DeepEqual(r1.Result, r2.Result) {
		t.Errorf("retry result differs:\nfirst: %+v\nretry: %+v", r1, r2)
	}
	// A different deadline must not change the content key.
	req3 := baseReq
	req3.DeadlineMS = 55_000
	_, body3 := postRun(t, ts, req3)
	if r3 := decodeResponse(t, body3); r3.Key != r1.Key {
		t.Errorf("deadline changed the content key: %s vs %s", r3.Key, r1.Key)
	}
}

// TestServerSingleFlight: concurrent identical requests collapse onto one
// simulation; everyone gets the same bytes.
func TestServerSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 8
	results := make([]Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postRun(t, ts, baseReq)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, body)
				return
			}
			results[i] = decodeResponse(t, body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0].Result, results[i].Result) {
			t.Fatalf("request %d result differs from request 0", i)
		}
	}
	if misses := s.Counters().MemoMisses; misses != 1 {
		t.Errorf("%d simulations ran for %d identical requests, want 1", misses, n)
	}
}

// TestServerKernelSpellings: npb accepts "cg" as well as "CG", and both
// spellings name one run: one key, one simulation, one warm template.
func TestServerKernelSpellings(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var keys []string
	for _, kernel := range []string{"cg", "CG"} {
		req := baseReq
		req.Kernel = kernel
		resp, body := postRun(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("kernel %q: %d %s", kernel, resp.StatusCode, body)
		}
		keys = append(keys, decodeResponse(t, body).Key)
	}
	if keys[0] != keys[1] {
		t.Errorf("cg keyed %s, CG keyed %s", keys[0], keys[1])
	}
	if want := npb.RunKey("CG", npb.RunConfig{
		Model: machine.Opteron270(), Threads: 2, Policy: core.Policy2M, Class: npb.ClassT,
		Sharing: machine.SharePartition, Barrier: omp.TreeBarrier,
	}); keys[0] != want {
		t.Errorf("served key %s, npb.RunKey of the CG run %s", keys[0], want)
	}
	if ctr := s.Counters(); ctr.MemoMisses != 1 || ctr.CacheHits != 1 {
		t.Errorf("memo misses %d, cache hits %d; want 1, 1", ctr.MemoMisses, ctr.CacheHits)
	}
	if builds := s.Gauges().TemplateBuilds; builds != 1 {
		t.Errorf("%d template builds, want 1", builds)
	}
}

// TestServerCollapsedWaiterRetries: a duplicate collapsed onto a flight
// whose leader's budget runs out retries under its own live budget as the
// new leader, and is answered 200 while the leader gets 504.
func TestServerCollapsedWaiterRetries(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// With the only worker slot held, the leader's flight waits for
	// admission, long enough for the duplicate to collapse onto it; then
	// the leader's budget runs out in the queue.
	release := holdSlot(t, s.sched)
	leader := baseReq
	leader.DeadlineMS = 1000
	leaderCode := postAsync(ts, leader)
	waitQueued(t, s.sched, 1)

	dup := baseReq
	dup.DeadlineMS = 60_000
	dupCode := postAsync(ts, dup)
	// The duplicate finds the leader's entry in flight: the memo counts it
	// a hit and it waits on that flight.
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if hits, _ := s.memo.Stats(); hits == 1 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("the duplicate never joined the leader's flight")
		}
	}
	if code := <-leaderCode; code != http.StatusGatewayTimeout {
		t.Fatalf("leader: %d, want 504", code)
	}
	release()
	if code := <-dupCode; code != http.StatusOK {
		t.Fatalf("collapsed duplicate: %d, want 200", code)
	}
	if ctr := s.Counters(); ctr.Retries != 1 || ctr.Aborted != 1 || ctr.Completed != 1 || ctr.MemoMisses != 2 {
		t.Errorf("retries %d, aborted %d, completed %d, memo misses %d; want 1, 1, 1, 2",
			ctr.Retries, ctr.Aborted, ctr.Completed, ctr.MemoMisses)
	}
}

// TestServerDeadlineAborts: a request whose budget expires mid-run is
// answered 504 with the typed aborted kind, and the worker it held is free
// for the next request.
func TestServerDeadlineAborts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})

	// Prime the warm template with a generous budget (template construction
	// is uncancellable and would eat a tiny budget before the first
	// checkpoint could).
	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d %s", resp.StatusCode, body)
	}

	slow := baseReq
	slow.Iterations = 500 // long enough that a 1ms budget dies mid-run
	slow.DeadlineMS = 1
	resp, body := postRun(t, ts, slow)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline run: %d %s, want 504", resp.StatusCode, body)
	}
	if k := errKind(t, body); k != kindAborted {
		t.Errorf("kind = %s, want %s", k, kindAborted)
	}
	if got := s.Counters().Aborted; got == 0 {
		t.Error("aborted counter not bumped")
	}

	// The single worker must be free again: a fresh (uncached) run succeeds.
	next := baseReq
	next.Threads = 1
	if resp, body := postRun(t, ts, next); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after abort: %d %s", resp.StatusCode, body)
	}

	// An identical request with a live budget must not inherit the aborted
	// flight's error: errors are never memoized.
	slow.DeadlineMS = 60_000
	if resp, body := postRun(t, ts, slow); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry of aborted config: %d %s", resp.StatusCode, body)
	}
}

// TestServerPanicQuarantine: an injected panic yields a typed 500 for that
// request only; the server keeps serving, and a later run forked from the
// same template matches a cold run bit-for-bit — the panic died with its
// fork, not with the snapshot.
func TestServerPanicQuarantine(t *testing.T) {
	s, ts := newTestServer(t, Config{AllowInject: true})

	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d %s", resp.StatusCode, body)
	}

	boom := baseReq
	boom.Inject = "panic"
	resp, body := postRun(t, ts, boom)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic: %d %s, want 500", resp.StatusCode, body)
	}
	if k := errKind(t, body); k != kindPanic {
		t.Errorf("kind = %s, want %s", k, kindPanic)
	}
	ctr := s.Counters()
	if ctr.Panicked != 1 {
		t.Errorf("panicked = %d, want 1", ctr.Panicked)
	}
	if ctr.Quarantined != 0 {
		t.Errorf("quarantined = %d, want 0 (the snapshot was not poisoned)", ctr.Quarantined)
	}

	// Post-panic sibling fork vs a cold run of the same config: threads=4
	// forces a fresh simulation (new content key) from the surviving
	// template.
	after := baseReq
	after.Threads = 4
	respA, bodyA := postRun(t, ts, after)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("run after panic: %d %s", respA.StatusCode, bodyA)
	}
	got := decodeResponse(t, bodyA).Result

	k, err := npb.New("CG")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := npb.Run(k, npb.RunConfig{
		Model: machine.Opteron270(), Threads: 4, Policy: core.Policy2M, Class: npb.ClassT,
		Sharing: machine.SharePartition, Barrier: omp.TreeBarrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare through the same JSON round-trip the service performs.
	cb, _ := json.Marshal(cold)
	var coldRT npb.Result
	if err := json.Unmarshal(cb, &coldRT); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRT, got) {
		t.Errorf("post-panic sibling differs from cold run:\ncold: %+v\ngot:  %+v", coldRT, got)
	}
}

// TestServerAdmissionRefuses: with the worker slot taken and the admission
// queue full, /run answers 429 with a Retry-After instead of queueing, and
// recovers once capacity returns.
func TestServerAdmissionRefuses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	// Saturate: one running session holding the only slot, one queued.
	release := holdSlot(t, s.sched)
	queuedReq := baseReq
	queuedReq.Threads = 1
	queued := postAsync(ts, queuedReq)
	waitQueued(t, s.sched, 1)

	resp, body := postRun(t, ts, baseReq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if k := errKind(t, body); k != kindSaturated {
		t.Errorf("kind = %s, want %s", k, kindSaturated)
	}
	if got := s.Counters().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	release()
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued run: %d, want 200", code)
	}
	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after capacity returned: %d %s", resp.StatusCode, body)
	}
}

// TestServerQueueWaitSpendsDeadline: time spent waiting for a worker slot
// comes out of the request's own deadline budget. With the only slot held
// for far longer than the budget, the request is answered 504 shortly after
// its deadline, and it never builds a template it cannot use.
func TestServerQueueWaitSpendsDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// Hold the slot for 1.5 s, or until the test ends if that is sooner.
	time.AfterFunc(1500*time.Millisecond, holdSlot(t, s.sched))
	builds := s.Gauges().TemplateBuilds

	req := baseReq
	req.DeadlineMS = 50
	start := time.Now()
	resp, body := postRun(t, ts, req)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued run: %d %s, want 504", resp.StatusCode, body)
	}
	if k := errKind(t, body); k != kindAborted {
		t.Errorf("kind = %s, want %s", k, kindAborted)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("answered after %s: the wait did not spend the 50ms budget", elapsed)
	}
	if got := s.Gauges().TemplateBuilds; got != builds {
		t.Errorf("template builds %d -> %d for a request that never ran", builds, got)
	}
	if got := s.Counters().Aborted; got != 1 {
		t.Errorf("aborted = %d, want 1", got)
	}
}

// TestServerCloseWaitsForSessions: Close refuses new sessions — a later
// cache-missing /run gets 503 draining — but returns only once the running
// session and the one queued behind it have both finished.
func TestServerCloseWaitsForSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := holdSlot(t, s.sched)
	queued := postAsync(ts, baseReq)
	waitQueued(t, s.sched, 1)

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitClosed(t, s.sched)
	later := baseReq
	later.Threads = 1
	later.DeadlineMS = 1000 // bounds the wait should Close fail to refuse it
	resp, body := postRun(t, ts, later)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run while closing: %d %s, want 503", resp.StatusCode, body)
	}
	if k := errKind(t, body); k != kindDraining {
		t.Errorf("kind = %s, want %s", k, kindDraining)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a session held the worker slot")
	case <-time.After(20 * time.Millisecond):
	}

	release()
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("session queued before Close: %d, want 200", code)
	}
	<-closed
	if got := s.Counters().Drained; got != 1 {
		t.Errorf("drained = %d, want 1", got)
	}
}

// postAsync posts req from another goroutine and delivers its status code
// (0 when the request could not be sent).
func postAsync(ts *httptest.Server, req Request) <-chan int {
	code := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

// holdSlot takes one worker slot as a running session would and returns its
// release, which is idempotent and also runs at cleanup: a test that fails
// early must not leave the server's Close waiting on the slot.
func holdSlot(t *testing.T, s *sched) (release func()) {
	t.Helper()
	if err := s.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { s.release(1) }) }
	t.Cleanup(release)
	return release
}

// TestSessionBuildPanicDropsSlot: a panic inside the template build is
// recovered at the session boundary like any other, and the boundary drops
// the slot, so the next session on that key builds afresh instead of
// inheriting a dead sync.Once.
func TestSessionBuildPanicDropsSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// No wire request compiles to an unknown policy; its build panics.
	cfg := npb.RunConfig{Model: machine.Opteron270(), Threads: 1, Class: npb.ClassT, Policy: core.PagePolicy(99)}
	key := tmplKey{Kernel: "CG", Class: cfg.Class, Policy: cfg.Policy}
	for i := 1; i <= 2; i++ {
		e := s.tmpls.get(key)
		if _, err := s.session(context.Background(), cfg, key, e, ""); !errors.Is(err, ErrSessionPanic) {
			t.Fatalf("session %d with a panicking build = %v, want ErrSessionPanic", i, err)
		}
		if s.tmpls.lookup(key) != nil {
			t.Fatalf("session %d: panicked build left its template slot in the pool", i)
		}
		// A session that waited on the same sync.Once gets a typed error,
		// not a nil template.
		if _, err := s.template(key, e, cfg); !errors.Is(err, errBuildPanicked) {
			t.Errorf("template from the panicked slot = %v, want errBuildPanicked", err)
		}
	}
	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after the panicked builds: %d %s", resp.StatusCode, body)
	}
	if ctr := s.Counters(); ctr.Panicked != 2 || ctr.Quarantined != 0 {
		t.Errorf("panicked = %d, quarantined = %d; want 2, 0", ctr.Panicked, ctr.Quarantined)
	}
	if g := s.Gauges(); g.TemplateBuilds != 1 || g.TemplateResidents != 1 {
		t.Errorf("builds = %d, residents = %d; want 1, 1", g.TemplateBuilds, g.TemplateResidents)
	}
}

// TestServerDrain: a draining server refuses new work with 503 + Retry-After
// and reports draining on /healthz.
func TestServerDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Drain()
	resp, body := postRun(t, ts, baseReq)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining run: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if k := errKind(t, body); k != kindDraining {
		t.Errorf("kind = %s, want %s", k, kindDraining)
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", h.StatusCode)
	}
}

// TestServerRejectsBadRequests: malformed, unknown-field, oversized, and
// disabled-injection requests all get typed 4xx answers.
func TestServerRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad kernel", `{"kernel":"LU","class":"T","model":"Opteron270","threads":1,"policy":"4KB"}`, 400},
		{"bad model", `{"kernel":"CG","class":"T","model":"EPYC","threads":1,"policy":"4KB"}`, 400},
		{"bad policy", `{"kernel":"CG","class":"T","model":"Opteron270","threads":1,"policy":"1GB"}`, 400},
		{"too many threads", `{"kernel":"CG","class":"T","model":"Opteron270","threads":64,"policy":"4KB"}`, 400},
		{"unknown field", `{"kernel":"CG","class":"T","model":"Opteron270","threads":1,"policy":"4KB","fault":"x"}`, 400},
		{"not json", `kernel=CG`, 400},
		{"oversized", `{"kernel":"CG","junk":"` + strings.Repeat("x", 4096) + `"}`, 413},
		{"inject disabled", `{"kernel":"CG","class":"T","model":"Opteron270","threads":1,"policy":"4KB","inject":"panic"}`, 400},
		{"true-shared", `{"kernel":"CG","class":"T","model":"XeonHT","threads":8,"policy":"4KB","sharing":"true-shared"}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}
	if got := s.Counters().Invalid; got != uint64(len(cases)) {
		t.Errorf("invalid = %d, want %d", got, len(cases))
	}
}

// TestServerSmoke is the CI race-mode smoke: a handful of mixed requests
// against a live server, then clean drain. Kept fast deliberately.
func TestServerSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 4, MemoCapacity: 8})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := baseReq
			req.Threads = 1 + i%2
			resp, body := postRun(t, ts, req)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("smoke %d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	st, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats struct {
		Counters Counters `json:"counters"`
	}
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters.Completed+stats.Counters.Rejected == 0 {
		t.Error("smoke produced no outcomes")
	}
}

// TestBudgetCap: the server cap binds client budgets.
func TestBudgetCap(t *testing.T) {
	s, err := NewServer(Config{MaxDeadline: time.Second, DefaultDeadline: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d := s.budget(&Request{}); d != 500*time.Millisecond {
		t.Errorf("default budget = %s", d)
	}
	if d := s.budget(&Request{DeadlineMS: 100}); d != 100*time.Millisecond {
		t.Errorf("explicit budget = %s", d)
	}
	if d := s.budget(&Request{DeadlineMS: 60_000}); d != time.Second {
		t.Errorf("capped budget = %s, want 1s", d)
	}
}

// TestServerOddSharerCounts: thread counts that leave a shared cache with a
// sharer count not dividing its sets — three contexts on a XeonHT chip at 5
// threads, three on the NiagaraT1 L2 — are simulated, not answered 500.
func TestServerOddSharerCounts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []Request{
		{Kernel: "CG", Class: "T", Model: "XeonHT", Threads: 5, Policy: "4KB", Iterations: 1},
		{Kernel: "MG", Class: "T", Model: "NiagaraT1", Threads: 3, Policy: "2MB", Iterations: 1},
	} {
		if resp, body := postRun(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Errorf("%s at %d threads: %d %s", req.Model, req.Threads, resp.StatusCode, body)
		}
	}
}

// TestTemplateReuse: requests differing only in fork-free fields share one
// warm template.
func TestTemplateReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, req := range []Request{
		baseReq,
		{Kernel: "CG", Class: "T", Model: "XeonHT", Threads: 4, Policy: "2MB", Sharing: "partitioned", Barrier: "central"},
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 1, Policy: "2MB", Iterations: 3},
	} {
		if resp, body := postRun(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: %d %s", req, resp.StatusCode, body)
		}
	}
	n, _, _, builds := s.tmpls.snapshot()
	if n != 1 {
		t.Errorf("%d templates for fork-free variations, want 1", n)
	}
	if builds != 1 {
		t.Errorf("%d template builds for fork-free variations, want 1", builds)
	}
}
