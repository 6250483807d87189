package simsrv

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

// serviceGrid returns every (kernel, policy, threads) cell of a small
// class-T grid on the paper's Opteron, and a mixed load visiting each cell
// repeats times in a fixed shuffled order — the shape of clients exploring
// a parameter space.
func serviceGrid(repeats int) (grid, reqs []Request) {
	for _, kernel := range []string{"CG", "MG"} {
		for _, policy := range []string{"4KB", "2MB"} {
			for _, threads := range []int{1, 2} {
				grid = append(grid, Request{
					Kernel: kernel, Class: "T", Model: "Opteron270",
					Threads: threads, Policy: policy,
				})
			}
		}
	}
	for r := 0; r < repeats; r++ {
		reqs = append(reqs, grid...)
	}
	seed := uint64(0x5eed)
	for i := len(reqs) - 1; i > 0; i-- {
		seed = seed*6364136223846793005 + 1442695040888963407
		j := int(seed>>33) % (i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	return grid, reqs
}

// driveService posts each request to s's handler in-process (no sockets: the
// measurement is the service stack, not the loopback). It returns how many
// answers came from a cache layer and the first answer's compacted result.
func driveService(tb testing.TB, s *Server, reqs []Request) (cached int, first []byte) {
	tb.Helper()
	h := s.Handler()
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		r := httptest.NewRequest("POST", "/run", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != 200 {
			tb.Fatalf("service answered %d: %s", w.Code, w.Body.String())
		}
		var resp struct {
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			tb.Fatal(err)
		}
		if resp.Cached {
			cached++
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := json.Compact(&buf, resp.Result); err != nil {
				tb.Fatal(err)
			}
			first = buf.Bytes()
		}
	}
	return cached, first
}

// populatedCache computes every cell of grid once on a first server over a
// fresh disk cache — the sweep, soak or earlier service life that filled it
// — and returns the cache directory.
func populatedCache(tb testing.TB, grid []Request) string {
	tb.Helper()
	dir := tb.TempDir()
	s, err := NewServer(Config{CacheDir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	driveService(tb, s, grid)
	s.Drain()
	return dir
}

// TestServiceWarmRestart: a fresh server — empty memo, empty template pool —
// on a populated disk cache answers the whole 32-request mixed grid from its
// cache layers: no simulation, no disk miss, no template build, and its
// first answer is byte-equal to a cold npb.Run of the same configuration.
func TestServiceWarmRestart(t *testing.T) {
	grid, reqs := serviceGrid(4)
	dir := populatedCache(t, grid)
	s, err := NewServer(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cached, first := driveService(t, s, reqs)
	if cached != len(reqs) {
		t.Errorf("%d of %d requests answered from cache, want all", cached, len(reqs))
	}
	g := s.Gauges()
	if g.DiskMisses != 0 {
		t.Errorf("warm restart missed disk %d times on a fully populated cache", g.DiskMisses)
	}
	if g.TemplateBuilds != 0 {
		t.Errorf("warm restart built %d templates", g.TemplateBuilds)
	}

	req := reqs[0]
	k, err := npb.New(req.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := machine.ModelByName(req.Model)
	policy := core.Policy4K
	if req.Policy == "2MB" {
		policy = core.Policy2M
	}
	cold, err := npb.Run(k, npb.RunConfig{
		Model: model, Threads: req.Threads, Class: npb.ClassT, Policy: policy,
		Sharing: machine.SharePartition, Barrier: omp.TreeBarrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("served result differs from a cold npb.Run:\ncold:   %s\nserved: %s", want, first)
	}
}

// minServiceSpeedup is the floor BenchmarkServiceWarmRestart enforces.
const minServiceSpeedup = 3.0

// floorMinWall is the least accumulated timing the floor is judged on:
// several passes, so the framework's one-pass calibration run never trips
// it.
const floorMinWall = 250 * time.Millisecond

// BenchmarkServiceWarmRestart replays the 32-request mixed grid on a
// warm-restarted server over a populated disk cache, and on a baseline
// server with no disk cache and a template budget that fits one template
// (the pool never evicts its most recent resident, so the load cycles
// template rebuilds). The warm server must be at least minServiceSpeedup
// times faster, or restarts stopped being served from disk or the template
// pool stopped retaining. `make serve-bench` runs it.
func BenchmarkServiceWarmRestart(b *testing.B) {
	grid, reqs := serviceGrid(4)
	dir := populatedCache(b, grid)
	b.ResetTimer()
	var warm, base time.Duration
	replay := func(cfg Config) time.Duration {
		s, err := NewServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		start := time.Now()
		driveService(b, s, reqs)
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		warm += replay(Config{CacheDir: dir})
		base += replay(Config{TemplateBudget: npb.TemplateBytes(npb.ClassT)})
	}
	speedup := base.Seconds() / warm.Seconds()
	b.ReportMetric(speedup, "x-vs-baseline")
	if warm+base >= floorMinWall && speedup < minServiceSpeedup {
		b.Fatalf("warm-restarted service %.2fx faster than the no-disk-cache single-template baseline, floor %.1fx",
			speedup, minServiceSpeedup)
	}
}
