package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type cfg struct {
	Model   string
	Threads int
	Costs   map[string]uint64
}

func TestKeyOfStability(t *testing.T) {
	a := cfg{Model: "Opteron270", Threads: 4, Costs: map[string]uint64{"walk": 50, "mem": 120}}
	b := cfg{Model: "Opteron270", Threads: 4, Costs: map[string]uint64{"mem": 120, "walk": 50}}
	ka, err := KeyOf("sweep", a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := KeyOf("sweep", b)
	if err != nil {
		t.Fatal(err)
	}
	// encoding/json sorts map keys, so insertion order must not matter.
	if ka != kb {
		t.Errorf("structurally equal configs hashed differently: %s vs %s", ka, kb)
	}
	c := a
	c.Threads = 8
	if kc := MustKey("sweep", c); kc == ka {
		t.Error("different configs collided")
	}
	if kp := MustKey("chaos", a); kp == ka {
		t.Error("different prefixes collided")
	}
	if len(ka) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(ka))
	}
}

func TestKeyOfUnencodable(t *testing.T) {
	if _, err := KeyOf(func() {}); err == nil {
		t.Error("func value produced a key")
	}
}

func TestGetOrComputeRoundTrip(t *testing.T) {
	c := New()
	type result struct {
		Cycles uint64
		Name   string
	}
	calls := 0
	compute := func() (any, error) {
		calls++
		return result{Cycles: 1234, Name: "CG"}, nil
	}
	var r1, r2 result
	hit, err := c.GetOrCompute("k", compute, &r1)
	if err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	hit, err = c.GetOrCompute("k", compute, &r2)
	if err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	if r1 != r2 || r1.Cycles != 1234 {
		t.Errorf("round trip mismatch: %+v vs %+v", r1, r2)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestGetOrComputeHitDoesNotAlias(t *testing.T) {
	c := New()
	type result struct{ Xs []int }
	var r1, r2 result
	if _, err := c.GetOrCompute("k", func() (any, error) {
		return result{Xs: []int{1, 2, 3}}, nil
	}, &r1); err != nil {
		t.Fatal(err)
	}
	r1.Xs[0] = 99 // mutating a returned result must not poison the cache
	if _, err := c.GetOrCompute("k", func() (any, error) {
		t.Fatal("compute re-ran on a hit")
		return nil, nil
	}, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Xs[0] != 1 {
		t.Errorf("hit observed a caller's mutation: %v", r2.Xs)
	}
}

func TestGetOrComputeErrorNotMemoized(t *testing.T) {
	c := New()
	want := errors.New("boom")
	var out int
	if _, err := c.GetOrCompute("k", func() (any, error) { return nil, want }, &out); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	// Errors are not content-addressed facts (a cancelled run says nothing
	// about the config): the key is forgotten and the next caller retries.
	if c.Len() != 0 {
		t.Fatalf("errored entry retained: len = %d, want 0", c.Len())
	}
	if _, err := c.GetOrCompute("k", func() (any, error) { return 7, nil }, &out); err != nil {
		t.Fatalf("retry after error: %v", err)
	}
	if out != 7 {
		t.Fatalf("retry decoded %d, want 7", out)
	}
}

// TestGetOrComputePanicNotMemoized: a compute that panics produced no
// result. The panic reaches the caller whose compute raised it, a caller
// collapsed onto that flight gets an error rather than empty bytes, Lookup
// never answers the key, and the next call recomputes.
func TestGetOrComputePanicNotMemoized(t *testing.T) {
	c := New()
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.GetOrComputeBytes("k", func() (any, error) {
			close(started)
			<-release
			panic("compute blew up")
		})
	}()
	<-started
	type answer struct {
		data []byte
		err  error
	}
	waiter := make(chan answer, 1)
	go func() {
		data, _, err := c.GetOrComputeBytes("k", func() (any, error) { return 1, nil })
		waiter <- answer{data, err}
	}()
	// The waiter has found the leader's entry once it counts a hit.
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		runtime.Gosched()
	}
	if _, ok := c.Lookup("k"); ok {
		t.Error("Lookup answered a flight in progress")
	}
	close(release)
	if p := <-leader; p != "compute blew up" {
		t.Fatalf("leader recovered %v, want the compute's panic", p)
	}
	if a := <-waiter; !errors.Is(a.err, errComputePanicked) {
		t.Errorf("collapsed waiter got data=%q err=%v, want errComputePanicked", a.data, a.err)
	}
	if _, ok := c.Lookup("k"); ok {
		t.Error("Lookup answered a panicked flight")
	}
	data, hit, err := c.GetOrComputeBytes("k", func() (any, error) { return 7, nil })
	if err != nil || hit || string(data) != "7" {
		t.Fatalf("after a panicked compute: data=%q hit=%v err=%v, want 7 computed afresh", data, hit, err)
	}
}

// TestGetOrComputeDecodeError: stored bytes that do not decode into the
// caller's type are reported as an error naming the key, whatever its
// length, not a panic.
func TestGetOrComputeDecodeError(t *testing.T) {
	c := New()
	var out struct{ Cycles uint64 }
	_, err := c.GetOrCompute("k", func() (any, error) { return "CG", nil }, &out)
	if err == nil || !strings.Contains(err.Error(), "memo: decode k:") {
		t.Errorf("err = %v, want a decode error for key k", err)
	}
}

func TestForget(t *testing.T) {
	c := New()
	calls := 0
	compute := func() (any, error) { calls++; return calls, nil }
	var out int
	for _, want := range []int{1, 1} {
		if _, err := c.GetOrCompute("k", compute, &out); err != nil || out != want {
			t.Fatalf("out = %d (err %v), want %d", out, err, want)
		}
	}
	c.Forget("k")
	if _, err := c.GetOrCompute("k", compute, &out); err != nil || out != 2 {
		t.Fatalf("after Forget: out = %d (err %v), want recompute = 2", out, err)
	}
}

// TestBoundedEviction: the capacity bound evicts in insertion order — the
// deterministic order a replayed request sequence reproduces — and counts
// every eviction.
func TestBoundedEviction(t *testing.T) {
	c := NewBounded(2)
	var out string
	get := func(key string) bool {
		t.Helper()
		hit, err := c.GetOrCompute(key, func() (any, error) { return key, nil }, &out)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	get("a")
	get("b")
	if !get("a") {
		t.Error("a evicted while within capacity")
	}
	get("c") // exceeds capacity: evicts "a" (oldest inserted, even though just hit)
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if got := c.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if get("a") {
		t.Error("a still cached after eviction")
	}
	// Reinserting "a" evicted "b"; "c" must survive both rounds.
	if !get("c") {
		t.Error("c evicted out of insertion order")
	}
	if c.Len() != 2 || c.Evictions() != 2 {
		t.Errorf("len = %d evictions = %d, want 2 and 2", c.Len(), c.Evictions())
	}
}

// TestBoundedEvictionSkipsForgotten: order slots whose entry errored (and was
// dropped) or was explicitly forgotten are skipped without counting.
func TestBoundedEvictionSkipsForgotten(t *testing.T) {
	c := NewBounded(2)
	var out int
	boom := errors.New("boom")
	if _, err := c.GetOrCompute("err", func() (any, error) { return nil, boom }, &out); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	for i, key := range []string{"a", "b", "c"} {
		if _, err := c.GetOrCompute(key, func() (any, error) { return i, nil }, &out); err != nil {
			t.Fatal(err)
		}
	}
	// "err" was dropped on failure, so inserting c evicted a (the oldest
	// live entry), not the stale slot.
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1 (stale slots must not count)", c.Evictions())
	}
	if hit, _ := c.GetOrCompute("b", func() (any, error) { return 9, nil }, &out); !hit {
		t.Error("b evicted; the stale slot was charged against a live entry")
	}
}

// TestGetOrComputeSingleFlight: concurrent callers of one key, through
// either form, run compute exactly once and all observe the same stored
// bytes — a sweep whose grid repeats a point simulates it once even under
// internal/par. The bytes form hands the leader, every collapsed waiter and
// every later hit the one stored slice, equal to json.Marshal of the
// computed value; a failed compute is still forgotten.
func TestGetOrComputeSingleFlight(t *testing.T) {
	c := New()
	type result struct {
		Cycles  uint64
		Regions []string
	}
	want := result{Cycles: 42, Regions: []string{"cg.matvec", "cg.dot"}}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	compute := func() (any, error) {
		calls.Add(1)
		return want, nil
	}
	const workers = 16
	decoded := make([]result, workers)
	raw := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				raw[i], _, err = c.GetOrComputeBytes("k", compute)
			} else {
				_, err = c.GetOrCompute("k", compute, &decoded[i])
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times under contention, want 1", calls.Load())
	}
	if hits, misses := c.Stats(); hits+misses != workers || misses < 1 {
		t.Errorf("stats = (%d, %d), want %d total with >= 1 miss", hits, misses, workers)
	}
	later, hit, err := c.GetOrComputeBytes("k", compute)
	if err != nil || !hit {
		t.Fatalf("later bytes hit: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(later, wantJSON) {
		t.Errorf("stored bytes %s, want json.Marshal of the computed value %s", later, wantJSON)
	}
	for i := 0; i < workers; i++ {
		if i%2 == 1 {
			if !reflect.DeepEqual(decoded[i], want) {
				t.Errorf("worker %d decoded %+v, want %+v", i, decoded[i], want)
			}
			continue
		}
		if len(raw[i]) == 0 || &raw[i][0] != &later[0] {
			t.Errorf("worker %d got %s, not the stored slice %s", i, raw[i], later)
		}
	}

	boom := errors.New("boom")
	if _, _, err := c.GetOrComputeBytes("fail", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed compute: err = %v, want boom", err)
	}
	if c.Len() != 1 {
		t.Errorf("failed compute retained: len = %d, want 1", c.Len())
	}
	data, hit, err := c.GetOrComputeBytes("fail", func() (any, error) { return want, nil })
	if err != nil || hit || !bytes.Equal(data, wantJSON) {
		t.Errorf("retry after failure: %s hit=%v err=%v", data, hit, err)
	}
}

// TestLookup: Lookup answers only a flight that completed successfully,
// with the stored slice, and counts only that answer as a hit. An absent
// key, a flight in progress and a failed flight report false and count
// nothing.
func TestLookup(t *testing.T) {
	c := New()
	if _, ok := c.Lookup("k"); ok {
		t.Error("absent key found")
	}
	var inFlight bool
	stored, _, err := c.GetOrComputeBytes("k", func() (any, error) {
		_, inFlight = c.Lookup("k")
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inFlight {
		t.Error("a flight in progress was found")
	}
	if data, ok := c.Lookup("k"); !ok || &data[0] != &stored[0] {
		t.Errorf("completed key: %s found=%v, want the stored slice %s", data, ok, stored)
	}

	// A failed flight stays in the map until its callers forget it.
	failed := &entry{key: "f", err: errors.New("boom")}
	failed.once.Do(func() {})
	c.mu.Lock()
	c.entries["f"] = failed
	c.mu.Unlock()
	if _, ok := c.Lookup("f"); ok {
		t.Error("a failed flight was found")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestLookupRacesFlight: a Lookup running alongside the flight that fills
// its key either misses or sees the complete stored bytes. Run under -race,
// it checks that the flight publishes its bytes to Lookup without a data
// race.
func TestLookupRacesFlight(t *testing.T) {
	c := New()
	for i := 0; i < 50; i++ {
		key := fmt.Sprint(i)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.GetOrComputeBytes(key, func() (any, error) { return []int{i, i}, nil }); err != nil {
				t.Error(err)
			}
		}()
		want := fmt.Sprintf("[%d,%d]", i, i)
		for {
			if data, ok := c.Lookup(key); ok {
				if string(data) != want {
					t.Errorf("key %s: looked up %s, want %s", key, data, want)
				}
				break
			}
		}
		wg.Wait()
	}
}

// fakeBacking is an in-memory stand-in for the disk layer.
type fakeBacking struct {
	mu      sync.Mutex
	entries map[string][]byte
	hits    int
}

func newFakeBacking() *fakeBacking { return &fakeBacking{entries: map[string][]byte{}} }

func (f *fakeBacking) GetOrCompute(key string, compute func() ([]byte, error)) ([]byte, error) {
	f.mu.Lock()
	data, ok := f.entries[key]
	if ok {
		f.hits++
	}
	f.mu.Unlock()
	if ok {
		return data, nil
	}
	data, err := compute()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.entries[key] = data
	f.mu.Unlock()
	return data, nil
}

// TestSchemaVersionFolded pins the key recipe: the schema-version line is
// hashed ahead of the parts, so bumping SchemaVersion reshuffles every key
// and a persistent store can never serve an old-format entry to new code.
func TestSchemaVersionFolded(t *testing.T) {
	h := sha256.New()
	fmt.Fprintf(h, "memo/schema/%d\n", SchemaVersion)
	if err := json.NewEncoder(h).Encode("probe"); err != nil {
		t.Fatal(err)
	}
	want := hex.EncodeToString(h.Sum(nil))
	if got := MustKey("probe"); got != want {
		t.Errorf("KeyOf does not fold the schema version:\ngot  %s\nwant %s", got, want)
	}
}

// TestBackingServesCrossProcessHits: a value published through one cache is
// served to a fresh cache (a restarted process) from the shared backing,
// without running compute, and reported as cached — decoded by
// GetOrCompute, and by GetOrComputeBytes as the very bytes the first cache
// published.
func TestBackingServesCrossProcessHits(t *testing.T) {
	b := newFakeBacking()
	c1 := New()
	c1.SetBacking(b)
	published, hit, err := c1.GetOrComputeBytes("k", func() (any, error) { return 7, nil })
	if err != nil || hit || string(published) != "7" {
		t.Fatalf("first compute: %s hit=%v err=%v", published, hit, err)
	}
	c2 := New() // restart: empty memory, same backing
	c2.SetBacking(b)
	ran := false
	var v int
	hit, err = c2.GetOrCompute("k", func() (any, error) { ran = true; return 0, nil }, &v)
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("compute ran despite a backing hit")
	}
	if !hit {
		t.Error("backing hit not reported as cached")
	}
	if v != 7 {
		t.Errorf("decoded %d from backing, want 7", v)
	}
	if b.hits != 1 {
		t.Errorf("backing hits = %d, want 1", b.hits)
	}
	// A second call on c2 is a pure memory hit: the backing is not touched.
	if hit, _ = c2.GetOrCompute("k", func() (any, error) { return 0, nil }, &v); !hit || b.hits != 1 {
		t.Errorf("memory layer did not absorb the repeat (hit=%v backing hits=%d)", hit, b.hits)
	}

	c3 := New() // another restart, served through the bytes form
	c3.SetBacking(b)
	data, hit, err := c3.GetOrComputeBytes("k", func() (any, error) { ran = true; return 0, nil })
	if err != nil || ran || !hit {
		t.Fatalf("bytes-form backing hit: hit=%v ran=%v err=%v", hit, ran, err)
	}
	if !bytes.Equal(data, published) {
		t.Errorf("backing served %s, first cache published %s", data, published)
	}
	again, hit, err := c3.GetOrComputeBytes("k", func() (any, error) { return 0, nil })
	if err != nil || !hit || b.hits != 2 || !bytes.Equal(again, published) {
		t.Errorf("bytes-form repeat: %s hit=%v backing hits=%d err=%v, want %s from memory", again, hit, b.hits, err, published)
	}
}

// TestBackingErrorNotPublished: a failed compute publishes nothing to the
// backing store and stays retryable.
func TestBackingErrorNotPublished(t *testing.T) {
	b := newFakeBacking()
	c := New()
	c.SetBacking(b)
	boom := errors.New("boom")
	var v int
	if _, err := c.GetOrCompute("k", func() (any, error) { return nil, boom }, &v); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(b.entries) != 0 {
		t.Error("failed compute reached the backing store")
	}
	hit, err := c.GetOrCompute("k", func() (any, error) { return 5, nil }, &v)
	if err != nil || hit || v != 5 {
		t.Errorf("retry after failure: hit=%v v=%d err=%v", hit, v, err)
	}
	if len(b.entries) != 1 {
		t.Error("successful retry not published")
	}
}
