package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
	"hugeomp/internal/simsrv"
)

// serveSoak is chaos's service-mode campaign: it stands up an in-process simd
// server on a loopback port and drives it with a seeded stream of client
// behavior — honest runs, duplicate bursts, mid-run disconnects, oversized
// bodies, malformed requests, tiny deadlines, and injected session panics —
// then holds the service to its contract:
//
//   - every answered result is bit-identical to every other answer for the
//     same configuration, across cache hits, evictions-and-recomputes, and
//     runs that happened after panics and aborts (zero cross-session
//     contamination);
//   - a sample of answers matches a cold in-process npb.Run of the same
//     config exactly;
//   - the typed counters conserve: every admitted request is accounted to
//     exactly one outcome, every injected panic is recovered at the session
//     boundary, and no template was quarantined (the shared snapshots
//     survived every poisoned fork).
//
// The memo is kept deliberately tiny so the soak's identical requests are
// periodically evicted and re-simulated — byte-equality across the campaign
// is then a statement about the simulator's determinism, not about a cache
// echoing one result back. With cacheDir set, the soak additionally exercises
// the shared on-disk layer: memo evictions refill from disk instead of
// re-simulating, and a second soak on the same directory — a separate process
// — must answer from cross-process hits while still matching the cold
// ground-truth sample bit-for-bit.
func serveSoak(ops int, seed uint64, verbose bool, cacheDir string) error {
	srv, err := simsrv.NewServer(simsrv.Config{
		Workers:      4,
		Queue:        8,
		AllowInject:  true,
		MaxBodyBytes: 2048,
		MemoCapacity: 4,
		CacheDir:     cacheDir,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		_ = httpSrv.Serve(ln)
	}()
	defer func() {
		srv.Drain()
		_ = httpSrv.Shutdown(context.Background())
		srv.Close()
	}()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{}

	cfgs := soakConfigs()
	// first-seen result bytes per config index: the reference every later
	// answer for that config must reproduce byte-for-byte.
	seen := make(map[int][]byte)
	var nRuns, nDups, nDrops, nBad, nBig, nPanics, nDeadlines int

	record := func(i int, body []byte) error {
		res, err := resultBytes(body)
		if err != nil {
			return err
		}
		if prev, ok := seen[i]; ok {
			if !bytes.Equal(prev, res) {
				return fmt.Errorf("config %d answered differently across the soak:\nfirst: %s\nnow:   %s",
					i, prev, res)
			}
		} else {
			seen[i] = res
		}
		return nil
	}

	s := seed
	for op := 0; op < ops; op++ {
		i := int(mix(&s) % uint64(len(cfgs)))
		switch mix(&s) % 8 {
		case 0, 1, 2: // honest run
			nRuns++
			code, body, err := post(hc, base, cfgs[i].req)
			if err != nil {
				return fmt.Errorf("op %d run: %w", op, err)
			}
			if code != http.StatusOK {
				return fmt.Errorf("op %d run: %d %s", op, code, body)
			}
			if err := record(i, body); err != nil {
				return err
			}
		case 3: // duplicate burst: concurrent identical requests
			nDups++
			const burst = 3
			type ans struct {
				code int
				body []byte
				err  error
			}
			ch := make(chan ans, burst)
			for j := 0; j < burst; j++ {
				go func() {
					code, body, err := post(hc, base, cfgs[i].req)
					ch <- ans{code, body, err}
				}()
			}
			for j := 0; j < burst; j++ {
				a := <-ch
				if a.err != nil {
					return fmt.Errorf("op %d dup: %w", op, a.err)
				}
				if a.code != http.StatusOK {
					return fmt.Errorf("op %d dup: %d %s", op, a.code, a.body)
				}
				if err := record(i, a.body); err != nil {
					return err
				}
			}
		case 4: // mid-run disconnect: the client walks away almost immediately
			nDrops++
			req := cfgs[i].req
			req.Iterations = 400 // long enough that the disconnect lands mid-run
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			_, _, _ = postCtx(ctx, hc, base, req) // outcome irrelevant; the server must survive it
			cancel()
		case 5: // malformed and unknown-field requests
			nBad++
			for _, raw := range []string{`{"kernel":`, `{"kernel":"CG","bogus":1}`, `{"kernel":"XX","class":"T","model":"Opteron270","threads":1,"policy":"4KB"}`} {
				code, body, err := postRaw(hc, base, raw)
				if err != nil {
					return fmt.Errorf("op %d bad: %w", op, err)
				}
				if code != http.StatusBadRequest {
					return fmt.Errorf("op %d bad: %d %s, want 400", op, code, body)
				}
			}
		case 6: // oversized body
			nBig++
			code, body, err := postRaw(hc, base, `{"kernel":"CG","junk":"`+strings.Repeat("x", 4096)+`"}`)
			if err != nil {
				return fmt.Errorf("op %d big: %w", op, err)
			}
			if code != http.StatusRequestEntityTooLarge {
				return fmt.Errorf("op %d big: %d %s, want 413", op, code, body)
			}
		default: // injected panic or starved deadline
			if mix(&s)%2 == 0 {
				nPanics++
				req := cfgs[i].req
				req.Inject = "panic"
				code, body, err := post(hc, base, req)
				if err != nil {
					return fmt.Errorf("op %d panic: %w", op, err)
				}
				if code != http.StatusInternalServerError {
					return fmt.Errorf("op %d panic: %d %s, want 500", op, code, body)
				}
			} else {
				nDeadlines++
				req := cfgs[i].req
				req.Iterations = 400
				req.DeadlineMS = 1
				code, body, err := post(hc, base, req)
				if err != nil {
					return fmt.Errorf("op %d deadline: %w", op, err)
				}
				// 504 when the budget dies mid-run; 200 if the box outran 1 ms.
				if code != http.StatusGatewayTimeout && code != http.StatusOK {
					return fmt.Errorf("op %d deadline: %d %s", op, code, body)
				}
			}
		}
		if verbose && (op+1)%50 == 0 {
			log.Printf("serve soak: %d/%d ops", op+1, ops)
		}
	}

	// The server took the whole campaign: it must still be healthy, ...
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz after soak: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz after soak: %d", resp.StatusCode)
	}

	// ... every config it ever answered must still answer byte-identically
	// (retries are idempotent even though panics and aborts happened in
	// between, and the tiny memo guarantees many of these are fresh
	// simulations off the shared template), ...
	for i := range seen {
		code, body, err := post(hc, base, cfgs[i].req)
		if err != nil {
			return fmt.Errorf("final retry %d: %w", i, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("final retry %d: %d %s", i, code, body)
		}
		if err := record(i, body); err != nil {
			return fmt.Errorf("post-soak contamination: %w", err)
		}
	}

	// ... a sample must match ground truth computed cold in this process, ...
	checked := 0
	for i := range seen {
		if checked == 3 {
			break
		}
		checked++
		k, err := npb.New(cfgs[i].req.Kernel)
		if err != nil {
			return err
		}
		cold, err := npb.Run(k, cfgs[i].native)
		if err != nil {
			return fmt.Errorf("cold reference %d: %w", i, err)
		}
		cb, err := json.Marshal(cold)
		if err != nil {
			return err
		}
		if !bytes.Equal(cb, seen[i]) {
			return fmt.Errorf("config %d: served result differs from cold npb.Run:\ncold:   %s\nserved: %s",
				i, cb, seen[i])
		}
	}

	// ... and the typed counters must conserve.
	ctr := srv.Counters()
	if ctr.Quarantined != 0 {
		return fmt.Errorf("%d templates quarantined: a poisoned fork reached the shared snapshot", ctr.Quarantined)
	}
	if got := ctr.Completed + ctr.Rejected + ctr.Aborted + ctr.Panicked + ctr.Failed + ctr.Drained; got != ctr.Requests {
		return fmt.Errorf("counters leak: %d admitted, %d accounted (%+v)", ctr.Requests, got, ctr)
	}
	if int(ctr.Panicked) != nPanics {
		return fmt.Errorf("injected %d panics, session boundary recovered %d", nPanics, ctr.Panicked)
	}

	fmt.Printf("chaos -serve: %d ops against simd on %s: all answers bit-identical per config, sample matches cold runs\n",
		ops, base)
	fmt.Printf("chaos -serve: %d runs, %d duplicate bursts, %d disconnects, %d malformed, %d oversized, %d panics, %d starved deadlines\n",
		nRuns, nDups, nDrops, nBad, nBig, nPanics, nDeadlines)
	fmt.Printf("chaos -serve: counters %+v\n", ctr)
	if cacheDir == "" {
		fmt.Printf("chaos -serve: %d/%d requests started a simulation, aborted ones included (memo capacity %d forced re-runs); every recomputation matched\n",
			ctr.MemoMisses, ctr.Requests, 4)
	} else {
		// With the shared disk layer, a memo miss refills from disk when the
		// key was ever published — by this soak or by any earlier process on
		// the same directory. Every disk miss starts a simulation, but only
		// a completed one publishes: the disconnect and starved-deadline runs
		// abort, so misses exceed writes even over a full directory.
		ds := srv.DiskStats()
		fmt.Printf("chaos -serve: shared cache %s: %d disk hits (cross-process or post-eviction), %d disk misses (simulations started, aborted ones included), %d writes (results published), %d corrupt entries skipped\n",
			cacheDir, ds.Hits, ds.Misses, ds.Writes, ds.CorruptSkips)
	}
	return nil
}

// soakConfigs is the fixed palette of honest configurations, each carried in
// both wire form and the native config a cold npb.Run needs for the
// ground-truth comparison. Native mirrors simsrv's compile defaults
// (partitioned sharing, tree barrier).
func soakConfigs() []struct {
	req    simsrv.Request
	native npb.RunConfig
} {
	model := machine.Opteron270()
	var out []struct {
		req    simsrv.Request
		native npb.RunConfig
	}
	for _, kernel := range []string{"CG", "MG"} {
		for _, threads := range []int{1, 2} {
			for _, pol := range []struct {
				wire   string
				native core.PagePolicy
			}{{"4KB", core.Policy4K}, {"2MB", core.Policy2M}, {"mixed", core.PolicyMixed}} {
				out = append(out, struct {
					req    simsrv.Request
					native npb.RunConfig
				}{
					req: simsrv.Request{
						Kernel: kernel, Class: "T", Model: "Opteron270",
						Threads: threads, Policy: pol.wire,
					},
					native: npb.RunConfig{
						Model: model, Threads: threads, Policy: pol.native,
						Class: npb.ClassT, Sharing: machine.SharePartition,
						Barrier: omp.TreeBarrier,
					},
				})
			}
		}
	}
	return out
}

// resultBytes extracts the compacted `result` object from a 200 answer.
func resultBytes(body []byte) ([]byte, error) {
	var resp struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode answer: %w\n%s", err, body)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, resp.Result); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func post(hc *http.Client, base string, req simsrv.Request) (int, []byte, error) {
	return postCtx(context.Background(), hc, base, req)
}

func postCtx(ctx context.Context, hc *http.Client, base string, req simsrv.Request) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	return do(ctx, hc, base, string(body))
}

func postRaw(hc *http.Client, base, body string) (int, []byte, error) {
	return do(context.Background(), hc, base, body)
}

func do(ctx context.Context, hc *http.Client, base, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}
