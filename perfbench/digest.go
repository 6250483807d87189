package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"

	"hugeomp/internal/npb"
)

// The correctness gate. A digest fingerprints everything a simulation
// computes — Cycles, Counters, OS counters and the per-region profiles — as
// the SHA-256 of their canonical JSON, so the digest of an in-process Result
// and of a served answer's raw bytes agree exactly when the served bytes are
// identical to a fresh encoding. Host-side fields (Seconds, footprints) stay
// out: they are derived, not simulated.

func digestParts(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:digestLen]
}

func digestResult(res npb.Result) (string, error) {
	var parts [][]byte
	for _, v := range []any{res.Cycles, res.Counters, res.OS, res.Regions} {
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		parts = append(parts, b)
	}
	return digestParts(parts...), nil
}

// digestWire digests the "result" object of a served answer from its raw
// bytes, without decoding numbers into Go values.
func digestWire(result []byte) (string, error) {
	var v struct{ Cycles, Counters, OS, Regions json.RawMessage }
	if err := json.Unmarshal(result, &v); err != nil {
		return "", err
	}
	return digestParts(v.Cycles, v.Counters, v.OS, v.Regions), nil
}

// digestLen is the hex length kept of digests and, in the golden file, of
// keys: 64 bits tell a moved counter apart with certainty to spare.
const digestLen = 16

// The golden file holds the digest of every simulation any seed's op lists
// can ask for — the whole serve_explore space (which contains every
// serve_replay set) and the paper_sweep grid — one "key digest" line each,
// keyed by npb.RunKey. A simulator change that moves any counter fails the
// gate here even when every cache layer agrees with it.

func parseGolden(raw []byte) (map[string]string, error) {
	g := map[string]string{}
	text := strings.TrimSpace(string(raw))
	if text == "" {
		return g, nil
	}
	for i, line := range strings.Split(text, "\n") {
		k, d, ok := strings.Cut(line, " ")
		if !ok || len(k) != digestLen || len(d) != digestLen {
			return nil, fmt.Errorf("golden digests line %d: %q", i+1, line)
		}
		g[k] = d
	}
	return g, nil
}

// mergeGolden adds digests (keyed by full RunKey) to the golden file at
// path, keeping every entry already there: the file is the union over
// workloads.
func mergeGolden(path string, digests map[string]string) error {
	all := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if all, err = parseGolden(raw); err != nil {
			return err
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for k, d := range digests {
		all[k[:digestLen]] = d
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, all[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// gate collects the digest each op's answer produced and judges it against
// the reference: the golden file when it knows the key, else a cold npb.Run
// made after the timed phase.
type gate struct {
	golden map[string]string

	mu       sync.Mutex
	observed map[string]string // key -> digest of its first answer
	bad      map[string]bool   // keys whose answers disagreed among themselves
	ops      map[string]*op
	wire     map[string]uint64 // key -> hash of its first served answer
	seed     maphash.Seed
	// counts, when non-nil (traced runs), collects each key's work counts.
	counts map[string]counts
}

func newGate(golden map[string]string) *gate {
	return &gate{
		golden: golden, observed: map[string]string{}, bad: map[string]bool{},
		ops: map[string]*op{}, wire: map[string]uint64{}, seed: maphash.MakeSeed(),
	}
}

var resultField = []byte(`"result":`)

// answer checks one served answer for o. The first answer for a key is
// decoded and digested; every later one's result must be byte-identical to
// it, which a hash comparison settles without decoding. (What precedes the
// result — the key and whether a cache answered — may differ.)
func (g *gate) answer(o *op, body []byte) error {
	at := bytes.Index(body, resultField)
	if at < 0 {
		return fmt.Errorf("%s: answer without a result", o.Key[:12])
	}
	h := maphash.Bytes(g.seed, body[at:])
	g.mu.Lock()
	first, seen := g.wire[o.Key]
	if !seen {
		g.wire[o.Key] = h
	} else if first != h {
		g.bad[o.Key] = true
	}
	_, counted := g.counts[o.Key]
	g.mu.Unlock()
	if seen && (g.counts == nil || counted) {
		return nil
	}
	var resp struct {
		Key    string
		Result json.RawMessage
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: answer: %w", o.Key[:12], err)
	}
	if resp.Key != o.Key {
		return fmt.Errorf("answer keyed %.12s for request %.12s", resp.Key, o.Key)
	}
	d, err := digestWire(resp.Result)
	if err != nil {
		return fmt.Errorf("%s: answer: %w", o.Key[:12], err)
	}
	g.record(o, d)
	if g.counts != nil {
		var res npb.Result
		if err := json.Unmarshal(resp.Result, &res); err != nil {
			return fmt.Errorf("%s: answer: %w", o.Key[:12], err)
		}
		g.noteCounts(o.Key, countsOf(res))
	}
	return nil
}

// noteCounts keeps a result's work counts for a traced run.
func (g *gate) noteCounts(key string, c counts) {
	if g.counts == nil {
		return
	}
	g.mu.Lock()
	g.counts[key] = c
	g.mu.Unlock()
}

// record notes that an answer for o digested to d.
func (g *gate) record(o *op, d string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.observed[o.Key]; ok {
		if prev != d {
			g.bad[o.Key] = true
		}
		return
	}
	g.observed[o.Key] = d
	g.ops[o.Key] = o
}

// judge returns the set of keys whose answers were wrong. Keys the golden
// file lacks are recomputed cold on workers goroutines; a cold run that
// itself fails marks its key wrong.
func (g *gate) judge(workers int) map[string]bool {
	wrong := map[string]bool{}
	for k := range g.bad {
		wrong[k] = true
	}
	var cold []string
	for k, d := range g.observed {
		if want, ok := g.golden[k[:digestLen]]; ok {
			if want != d {
				wrong[k] = true
			}
			continue
		}
		cold = append(cold, k)
	}
	sort.Strings(cold)
	refs := make([]string, len(cold))
	parallel(workers, len(cold), func(i int) {
		refs[i], _ = coldDigest(g.ops[cold[i]])
	})
	for i, k := range cold {
		if refs[i] == "" || refs[i] != g.observed[k] {
			wrong[k] = true
		}
	}
	return wrong
}

// coldDigest runs o from scratch — fresh system, no caches — and digests it.
func coldDigest(o *op) (string, error) {
	k, err := npb.New(o.Kernel)
	if err != nil {
		return "", err
	}
	res, err := npb.Run(k, o.Cfg)
	if err != nil {
		return "", err
	}
	return digestResult(res)
}

// parallel runs f(0..n-1) on at most workers goroutines and waits for all.
func parallel(workers, n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
