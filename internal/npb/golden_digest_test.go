package npb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/omp"
)

// The golden-digest gate. perfbench/golden.txt pins the counters of every
// run the benchmark's workloads can ask for: each line pairs the first 16
// hex digits of an npb.RunKey with the first 16 of a digest of the run's
// simulated output. RunKey folds in memo.SchemaVersion and every field of
// RunConfig and machine.Model, so a counter that moves under an unchanged
// key, or a key that moves because a config field did, fails here at
// tier-1 instead of only when someone runs the benchmark.

const goldenPath = "../../perfbench/golden.txt"

// goldenDigest fingerprints everything a run simulates — Cycles, Counters,
// OS counters and per-region profiles — as the SHA-256 of their JSON, each
// followed by a newline: the digest perfbench's gate records. Host-side
// fields (Seconds, footprints) stay out. Safe to call from any goroutine.
func goldenDigest(t testing.TB, res Result) string {
	t.Helper()
	h := sha256.New()
	for _, v := range []any{res.Cycles, res.Counters, res.OS, res.Regions} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
			return ""
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenCell is one config of the golden space.
type goldenCell struct {
	kernel string
	cfg    RunConfig
}

func (c goldenCell) String() string {
	return fmt.Sprintf("%s/%s/%s/%dthr/%v/it%d/%v", c.kernel, c.cfg.Class, c.cfg.Model.Name,
		c.cfg.Threads, c.cfg.Policy, c.cfg.Iterations, c.cfg.Barrier)
}

func goldenConfig(t testing.TB, model string, threads int, policy core.PagePolicy, class Class, iters int, barrier omp.BarrierAlgo) RunConfig {
	m, ok := machine.ModelByName(model)
	if !ok {
		t.Fatalf("unknown model %q", model)
	}
	return RunConfig{Model: m, Threads: threads, Policy: policy, Class: class, Iterations: iters,
		Sharing: machine.SharePartition, Barrier: barrier}
}

// goldenTriple is one (model, threads, policy) point of the class-T space.
type goldenTriple struct {
	model   string
	threads int
	policy  core.PagePolicy
}

// goldenTriples lists the class-T space's 29 (model, threads, policy)
// points: Opteron270 at 1–4 threads and XeonHT at 1–4 and 8, under 4 KB,
// 2 MB and mixed pages, and transparent pages at 1 thread only.
func goldenTriples() []goldenTriple {
	var out []goldenTriple
	for _, mt := range []struct {
		model   string
		threads []int
	}{{"Opteron270", []int{1, 2, 3, 4}}, {"XeonHT", []int{1, 2, 3, 4, 8}}} {
		for _, n := range mt.threads {
			for _, p := range []core.PagePolicy{core.Policy4K, core.Policy2M, core.PolicyMixed, core.PolicyTransparent} {
				if p == core.PolicyTransparent && n > 1 {
					continue
				}
				out = append(out, goldenTriple{mt.model, n, p})
			}
		}
	}
	return out
}

var goldenBarriers = []omp.BarrierAlgo{omp.TreeBarrier, omp.CentralBarrier}

// goldenClassS lists the paper's Figure 4 grid at class S — 5 kernels × 2
// models × {4 KB, 2 MB} × the thread ladder (8 only on XeonHT) — with the
// central barrier and default iterations: 70 cells.
func goldenClassS(t testing.TB) []goldenCell {
	var out []goldenCell
	for _, k := range Names() {
		for _, mt := range []struct {
			model   string
			threads []int
		}{{"Opteron270", []int{1, 2, 4}}, {"XeonHT", []int{1, 2, 4, 8}}} {
			for _, p := range []core.PagePolicy{core.Policy4K, core.Policy2M} {
				for _, n := range mt.threads {
					out = append(out, goldenCell{k, goldenConfig(t, mt.model, n, p, ClassS, 0, omp.CentralBarrier)})
				}
			}
		}
	}
	return out
}

// goldenSpace lists all 1810 cells: 5 kernels × 29 triples × iterations
// 1–6 × 2 barriers at class T, then the class-S grid.
func goldenSpace(t testing.TB) []goldenCell {
	var out []goldenCell
	for _, k := range Names() {
		for _, tr := range goldenTriples() {
			for it := 1; it <= 6; it++ {
				for _, b := range goldenBarriers {
					out = append(out, goldenCell{k, goldenConfig(t, tr.model, tr.threads, tr.policy, ClassT, it, b)})
				}
			}
		}
	}
	return append(out, goldenClassS(t)...)
}

// goldenSample is the stratified sample -short recomputes: every kernel ×
// triple once (145 class-T cells), its iteration count and barrier rotating
// with the cell's index, plus one class-S cell per kernel, rotating over
// models, thread counts and policies.
func goldenSample(t testing.TB) []goldenCell {
	var out []goldenCell
	i := 0
	for _, k := range Names() {
		for _, tr := range goldenTriples() {
			out = append(out, goldenCell{k, goldenConfig(t, tr.model, tr.threads, tr.policy, ClassT,
				1+i%6, goldenBarriers[(i/6)%2])})
			i++
		}
	}
	grid := goldenClassS(t)
	perKernel := len(grid) / len(Names())
	for j := range Names() {
		out = append(out, grid[j*perKernel+(5*j+2)%perKernel])
	}
	return out
}

func readGolden(t testing.TB) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	g := map[string]string{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, d, ok := strings.Cut(line, " ")
		if !ok || len(k) != 16 || len(d) != 16 {
			t.Fatalf("%s line %d: %q", goldenPath, i+1, line)
		}
		g[k] = d
	}
	return g
}

// TestGoldenDigests: every key of the config space is in the golden file
// and the file holds nothing else, and the recomputed digests match — a
// stratified sample under -short, cold and through warm forks, else every
// cell cold.
func TestGoldenDigests(t *testing.T) {
	golden := readGolden(t)
	space := goldenSpace(t)
	keys := make(map[string]bool, len(space))
	for _, c := range space {
		key := RunKey(c.kernel, c.cfg)[:16]
		keys[key] = true
		if _, ok := golden[key]; !ok {
			t.Errorf("%v: key %s missing from %s", c, key, goldenPath)
		}
	}
	if len(space) != 1810 || len(keys) != len(space) || len(golden) != len(keys) {
		t.Fatalf("%d cells, %d distinct keys, %d golden lines; want 1810 of each", len(space), len(keys), len(golden))
	}
	if t.Failed() {
		return
	}

	cells := space
	if testing.Short() {
		cells = goldenSample(t)
	}
	// The sample's fork leg: every third cell also runs through a warm
	// template of its (kernel, class, policy) shape.
	var (
		mu    sync.Mutex
		warms = map[string]*Warm{}
	)
	warmFor := func(c goldenCell) *Warm {
		shape := fmt.Sprintf("%s/%v/%v", c.kernel, c.cfg.Class, c.cfg.Policy)
		mu.Lock()
		defer mu.Unlock()
		if w := warms[shape]; w != nil {
			return w
		}
		w, err := NewWarm(c.kernel, c.cfg)
		if err != nil {
			t.Errorf("%v: template: %v", c, err)
			return nil
		}
		warms[shape] = w
		return w
	}
	check := func(i int, c goldenCell) {
		want := golden[RunKey(c.kernel, c.cfg)[:16]]
		k, err := New(c.kernel)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := Run(k, c.cfg)
		if err != nil {
			t.Errorf("%v: %v", c, err)
			return
		}
		if got := goldenDigest(t, res); got != want {
			t.Errorf("%v: cold digest %s, golden %s", c, got, want)
		}
		if !testing.Short() || i%3 != 0 {
			return
		}
		w := warmFor(c)
		if w == nil {
			return
		}
		res, err = w.Run(c.cfg)
		if err != nil {
			t.Errorf("%v: warm: %v", c, err)
			return
		}
		if got := goldenDigest(t, res); got != want {
			t.Errorf("%v: warm-fork digest %s, golden %s", c, got, want)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), 4)
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				check(i, cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
}

// TestOddSharerCountsDeterministic: thread counts whose sharer counts do not
// divide a shared cache's set count — three contexts on a XeonHT chip at 5
// threads, three on NiagaraT1's L2 — run, and give one digest over three
// cold runs.
func TestOddSharerCountsDeterministic(t *testing.T) {
	for _, name := range Names() {
		for _, cfg := range []RunConfig{
			{Model: machine.XeonHT(), Threads: 5, Policy: core.Policy4K, Class: ClassT, Iterations: 1},
			{Model: machine.NiagaraT1(), Threads: 3, Policy: core.Policy2M, Class: ClassT, Iterations: 1},
		} {
			var first string
			for run := 0; run < 3; run++ {
				k, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(k, cfg)
				if err != nil {
					t.Fatalf("%s on %s at %d threads: %v", name, cfg.Model.Name, cfg.Threads, err)
				}
				d := goldenDigest(t, res)
				if run == 0 {
					first = d
				} else if d != first {
					t.Errorf("%s on %s at %d threads: run %d digest %s, run 0 %s",
						name, cfg.Model.Name, cfg.Threads, run, d, first)
				}
			}
		}
	}
}
