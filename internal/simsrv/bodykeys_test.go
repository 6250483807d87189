package simsrv

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// serve posts body to s's handler in-process and returns the recorder.
func serve(s *Server, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// mustServe is serve failing the test unless the answer is code.
func mustServe(t *testing.T, s *Server, body string, code int) *httptest.ResponseRecorder {
	t.Helper()
	w := serve(s, body)
	if w.Code != code {
		t.Fatalf("%.60s…: status %d, want %d: %s", body, w.Code, code, w.Body.String())
	}
	return w
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Drain()
		s.Close()
	})
	return s
}

// recorded returns the number of bodies s has recorded.
func recorded(s *Server) int {
	s.bodyKeys.mu.Lock()
	defer s.bodyKeys.mu.Unlock()
	return len(s.bodyKeys.keys)
}

const baseBody = `{"kernel":"CG","class":"T","model":"Opteron270","threads":2,"policy":"2MB"}`

// TestRepeatBodyAnswer: a repeated body is answered from the memo without a
// decode, and its answer is byte-identical, headers included, to the memo
// hit a never-seen respelling gets by decoding, and to its own first answer
// with the cached flag set; that first answer matches a cold server's.
func TestRepeatBodyAnswer(t *testing.T) {
	s := newServer(t, Config{})
	first := mustServe(t, s, baseBody, http.StatusOK)
	if recorded(s) != 1 {
		t.Fatalf("%d bodies recorded after one run, want 1", recorded(s))
	}
	repeats := []*httptest.ResponseRecorder{
		mustServe(t, s, baseBody, http.StatusOK),
		mustServe(t, s, baseBody, http.StatusOK),
	}
	decoded := mustServe(t, s, ` `+baseBody, http.StatusOK) // one body the server has not seen
	want := bytes.Replace(first.Body.Bytes(), []byte(`"cached":false`), []byte(`"cached":true`), 1)
	for i, w := range append(repeats, decoded) {
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("answer %d differs from the first with cached set:\ngot:  %s\nwant: %s", i, w.Body.Bytes(), want)
		}
		for _, h := range []string{"Content-Type", "Content-Length"} {
			if got, want := w.Header().Get(h), decoded.Header().Get(h); got != want {
				t.Errorf("answer %d: %s %q, the decoded hit's %q", i, h, got, want)
			}
		}
	}
	cold := mustServe(t, newServer(t, Config{}), baseBody, http.StatusOK)
	if !bytes.Equal(cold.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("first answer differs from a cold server's:\nfirst: %s\ncold:  %s", first.Body.Bytes(), cold.Body.Bytes())
	}
	ctr := s.Counters()
	if ctr.Requests != 4 || ctr.Completed != 4 || ctr.CacheHits != 3 || ctr.MemoMisses != 1 {
		t.Errorf("counters %+v, want 4 requests, 4 completed, 3 cache hits, 1 memo miss", ctr)
	}
	if hits, _ := s.memo.Stats(); hits != 3 {
		t.Errorf("memo counted %d hits, want 3", hits)
	}
}

// TestRespelledBodies: spellings of one config (kernel case, field order,
// whitespace, a deadline) share one memo entry, and each body gets its own
// body-key entry, so every later repeat of any of them skips the decode.
func TestRespelledBodies(t *testing.T) {
	s := newServer(t, Config{})
	bodies := []string{
		baseBody,
		`{"kernel":"cg","class":"T","model":"Opteron270","threads":2,"policy":"2MB"}`,
		`{"policy":"2MB","threads":2,"model":"Opteron270","class":"T","kernel":"CG"}`,
		"{\n\t\"kernel\": \"CG\", \"class\": \"T\", \"model\": \"Opteron270\", \"threads\": 2, \"policy\": \"2MB\"\n}",
		`{"kernel":"CG","class":"T","model":"Opteron270","threads":2,"policy":"2MB","deadline_ms":9000}`,
	}
	var key string
	for pass := 0; pass < 2; pass++ {
		for i, body := range bodies {
			var resp Response
			if err := json.Unmarshal(mustServe(t, s, body, http.StatusOK).Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if key == "" {
				key = resp.Key
			} else if resp.Key != key {
				t.Errorf("pass %d body %d keyed %s, want %s", pass, i, resp.Key, key)
			}
		}
		if n := recorded(s); n != len(bodies) {
			t.Errorf("pass %d: %d bodies recorded, want %d", pass, n, len(bodies))
		}
	}
	if n := s.memo.Len(); n != 1 {
		t.Errorf("%d memo entries, want 1", n)
	}
	if ctr := s.Counters(); ctr.MemoMisses != 1 || ctr.CacheHits != uint64(2*len(bodies)-1) {
		t.Errorf("memo misses %d, cache hits %d; want 1, %d", ctr.MemoMisses, ctr.CacheHits, 2*len(bodies)-1)
	}
}

// TestRepeatedInvalidBody: an invalid body is never recorded, so each
// repeat is decoded again, refused again and counted again.
func TestRepeatedInvalidBody(t *testing.T) {
	s := newServer(t, Config{MaxBodyBytes: 256})
	bodies := []struct {
		body string
		code int
	}{
		{`{"kernel":"CG","class":"T","model":"EPYC","threads":1,"policy":"4KB"}`, http.StatusBadRequest},
		{`{"kernel":"CG","class":"T","model":"Opteron270","threads":1,"policy":"4KB","fault":"x"}`, http.StatusBadRequest},
		{`{"kernel":"CG","class":"T","model":"Opteron270","threads":1,"policy":"4KB","inject":"panic"}`, http.StatusBadRequest},
		{`kernel=CG`, http.StatusBadRequest},
		{`{"kernel":"CG","junk":"` + strings.Repeat("x", 512) + `"}`, http.StatusRequestEntityTooLarge},
	}
	const repeats = 3
	for r := 0; r < repeats; r++ {
		for _, b := range bodies {
			mustServe(t, s, b.body, b.code)
		}
	}
	if got, want := s.Counters().Invalid, uint64(repeats*len(bodies)); got != want {
		t.Errorf("invalid = %d, want %d", got, want)
	}
	if n := recorded(s); n != 0 {
		t.Errorf("%d invalid bodies recorded", n)
	}
}

// TestRepeatedInjectBody: an inject body is never recorded, so every repeat
// dispatches a session and panics there, even after its config is memoized.
func TestRepeatedInjectBody(t *testing.T) {
	s := newServer(t, Config{AllowInject: true})
	mustServe(t, s, baseBody, http.StatusOK)
	inject := strings.TrimSuffix(baseBody, "}") + `,"inject":"panic"}`
	const repeats = 3
	for r := 0; r < repeats; r++ {
		if kind := errKind(t, mustServe(t, s, inject, http.StatusInternalServerError).Body.Bytes()); kind != kindPanic {
			t.Fatalf("repeat %d: kind %q, want %q", r, kind, kindPanic)
		}
	}
	if ctr := s.Counters(); ctr.Panicked != repeats || ctr.Requests != repeats+1 {
		t.Errorf("panicked %d of %d requests, want %d of %d", ctr.Panicked, ctr.Requests, repeats, repeats+1)
	}
	if n := recorded(s); n != 1 {
		t.Errorf("%d bodies recorded, want only the plain one", n)
	}
}

// TestMemoEvictedBodyRecomputes: a recorded body whose key the memo has
// evicted falls back to the decoding path and recomputes the same bytes.
// The eviction comes from an oversized body whose first value ends inside
// the limit: it is answered (as the decoder always allowed) and memoized,
// but never recorded, since the server did not read all of it.
func TestMemoEvictedBodyRecomputes(t *testing.T) {
	s := newServer(t, Config{MemoCapacity: 1, MaxBodyBytes: 256})
	first := mustServe(t, s, baseBody, http.StatusOK)
	other := `{"kernel":"MG","class":"T","model":"Opteron270","threads":1,"policy":"4KB"}`
	mustServe(t, s, other+strings.Repeat(" ", 512), http.StatusOK)
	sum := sha256.Sum256([]byte(baseBody))
	if _, ok := s.bodyKeys.get(&sum); s.Counters().MemoEvicted != 1 || !ok {
		t.Fatalf("%d memo evictions, first body recorded %v; want 1, true", s.Counters().MemoEvicted, ok)
	}
	again := mustServe(t, s, baseBody, http.StatusOK)
	if !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("recomputed answer differs from the first:\nfirst: %s\nagain: %s", first.Body.Bytes(), again.Body.Bytes())
	}
	if ctr := s.Counters(); ctr.MemoMisses != 3 || ctr.CacheHits != 0 {
		t.Errorf("memo misses %d, cache hits %d; want 3, 0", ctr.MemoMisses, ctr.CacheHits)
	}
	if hit := mustServe(t, s, baseBody, http.StatusOK); !bytes.Contains(hit.Body.Bytes(), []byte(`"cached":true`)) {
		t.Errorf("repeat after the recompute not answered from the memo: %s", hit.Body.Bytes())
	}
}

// TestBodyKeysBound: distinct valid bodies of one config (deadline and
// padding variants: one memo entry, many bodies) fill the map to the
// memo's capacity and no further, oldest out first; a padded body near the
// size limit costs an entry of the same size as a short one.
func TestBodyKeysBound(t *testing.T) {
	const capacity = 4
	s := newServer(t, Config{MemoCapacity: capacity})
	var bodies []string
	for i := 0; i < 3*capacity; i++ {
		body := strings.TrimSuffix(baseBody, "}") + fmt.Sprintf(`,"deadline_ms":%d}`, 1000+i)
		mustServe(t, s, body, http.StatusOK)
		bodies = append(bodies, body)
		if n := recorded(s); n != min(i+1, capacity) {
			t.Fatalf("after %d bodies: %d recorded, want %d", i+1, n, min(i+1, capacity))
		}
	}
	for i, body := range bodies {
		sum := sha256.Sum256([]byte(body))
		if _, ok := s.bodyKeys.get(&sum); ok != (i >= len(bodies)-capacity) {
			t.Errorf("body %d recorded = %v; want only the last %d", i, ok, capacity)
		}
	}

	// Padded bodies: each is half the default 1 MiB limit. Were the map
	// to keep them, the heap would grow by n of them.
	s = newServer(t, Config{})
	mustServe(t, s, baseBody, http.StatusOK)
	const n, pad = 8, 512 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		mustServe(t, s, baseBody+strings.Repeat(" ", pad+i), http.StatusOK)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := recorded(s); got != n+1 {
		t.Errorf("%d bodies recorded, want %d", got, n+1)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > pad {
		t.Errorf("heap grew %d bytes over %d recorded %d-byte bodies", grew, n, pad)
	}
}

// TestBodyKeysEviction: once full the map replaces its oldest insertion,
// so after every put exactly the last capacity distinct bodies are
// recorded; a body already recorded keeps its slot.
func TestBodyKeysEviction(t *testing.T) {
	const capacity = 3
	b := newBodyKeys(capacity)
	sums := make([]bodySum, 10)
	for i := range sums {
		sums[i] = sha256.Sum256([]byte{byte(i)})
	}
	for i := range sums {
		b.put(&sums[i], fmt.Sprintf("k%d", i))
		b.put(&sums[max(0, i-1)], "ignored") // already recorded: no new slot
		for j := 0; j <= i; j++ {
			key, ok := b.get(&sums[j])
			if want := j > i-capacity; ok != want || (ok && key != fmt.Sprintf("k%d", j)) {
				t.Fatalf("after put %d: body %d has key %q, recorded %v; want recorded %v", i, j, key, ok, want)
			}
		}
	}
	if newBodyKeys(0).capacity != defaultBodyKeys {
		t.Errorf("an unbounded memo's map is not bounded by defaultBodyKeys")
	}
}

// TestConcurrentIdenticalBodies: identical bodies posted from many
// goroutines, first-seen and repeated, all get one byte-identical answer
// from one simulation (run under -race by make simd-smoke).
func TestConcurrentIdenticalBodies(t *testing.T) {
	s := newServer(t, Config{})
	const clients, repeats = 8, 5
	answers := make([][]byte, clients*repeats)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < repeats; r++ {
				w := serve(s, baseBody)
				if w.Code != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, w.Code, w.Body.String())
					return
				}
				answers[c*repeats+r] = bytes.Replace(w.Body.Bytes(), []byte(`"cached":true`), []byte(`"cached":false`), 1)
			}
		}(c)
	}
	wg.Wait()
	for i, a := range answers {
		if !bytes.Equal(a, answers[0]) {
			t.Fatalf("answer %d differs from answer 0:\n%s\n%s", i, a, answers[0])
		}
	}
	ctr := s.Counters()
	if ctr.MemoMisses != 1 || ctr.Requests != clients*repeats || ctr.Completed != clients*repeats || ctr.CacheHits != clients*repeats-1 {
		t.Errorf("counters %+v, want 1 memo miss and %d requests, all completed, all but one cache hits", ctr, clients*repeats)
	}
}

// discard is a ResponseWriter that keeps nothing but its header map, so an
// allocation count over the handler is the handler's own.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header               { return d.h }
func (d *discard) WriteHeader(int)                   {}
func (d *discard) Write(p []byte) (int, error)       { return len(p), nil }
func (d *discard) WriteString(s string) (int, error) { return len(s), nil }

// TestRepeatHitAllocs pins the allocations of a repeated body's memo hit:
// the body limit's reader, the body, and the answer's header values.
func TestRepeatHitAllocs(t *testing.T) {
	const limit = 5
	s := newServer(t, Config{})
	mustServe(t, s, baseBody, http.StatusOK)
	want := mustServe(t, s, baseBody, http.StatusOK).Header().Get("Content-Length")
	raw := []byte(baseBody)
	var body bytes.Reader
	r := httptest.NewRequest(http.MethodPost, "/run", nil)
	r.Body = io.NopCloser(&body)
	w := &discard{h: http.Header{}}
	allocs := testing.AllocsPerRun(100, func() {
		body.Reset(raw)
		clear(w.h)
		s.handleRun(w, r)
	})
	if got := w.h.Get("Content-Length"); got != want {
		t.Fatalf("Content-Length %q, want a memo hit's %q", got, want)
	}
	if allocs > limit {
		t.Errorf("a repeated body's memo hit made %.0f allocations, want at most %d", allocs, limit)
	}
}
