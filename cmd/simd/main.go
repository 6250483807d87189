// Command simd serves the simulator over HTTP: POST /run takes a (machine
// config, workload, params) request and answers with the run's counters,
// memoized under the canonical content key of the configuration. The service
// is built to survive misbehaving clients and poisoned sessions — see
// internal/simsrv and docs/ROBUSTNESS.md ("Service failure model").
//
//	simd -addr :8080 -workers 4 -queue 8 -max-deadline 1m \
//	     -cache-dir /var/cache/hugeomp -mem-budget 512MB -template-budget 2GB
//
// A request that misses every cache layer is admitted by one scheduler: it
// runs once one of -workers slots is free and its estimated footprint fits
// -mem-budget (the summed estimate over running sessions), waiting FIFO
// meanwhile on its own deadline budget. A request arriving at a queue that
// already holds -queue waiters gets 429 with a Retry-After.
//
// With -cache-dir, results persist across restarts in a crash-safe shared
// store (internal/memo/diskcache) that any number of simd, sweep and chaos
// processes may point at concurrently; -template-budget bounds the
// warmed-template pool (LRU beyond it rebuild cold).
//
// On SIGINT/SIGTERM the server drains: new requests get 503 with a
// Retry-After, queued and in-flight sessions finish (or hit their
// deadlines), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hugeomp/internal/simsrv"
	"hugeomp/internal/units"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "sessions that may wait for admission before 429 (0 = 2x workers)")
	defaultDeadline := flag.Duration("default-deadline", 30*time.Second, "deadline for requests that name none")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "cap on any request's deadline budget")
	memoCap := flag.Int("memo-capacity", 4096, "result cache entries (0 = unbounded)")
	allowInject := flag.Bool("allow-inject", false, "enable test-only fault injection requests")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight sessions")
	cacheDir := flag.String("cache-dir", "", "shared on-disk result cache directory (empty = memory only)")
	memBudget := flag.String("mem-budget", "0", "footprint budget for concurrent sessions, e.g. 512MB (0 = unbounded)")
	tmplBudget := flag.String("template-budget", "0", "warmed-template pool byte budget, e.g. 2GB (0 = unbounded)")
	flag.Parse()

	memBytes, err := units.ParseBytes(*memBudget)
	if err != nil {
		log.Fatalf("simd: -mem-budget: %v", err)
	}
	tmplBytes, err := units.ParseBytes(*tmplBudget)
	if err != nil {
		log.Fatalf("simd: -template-budget: %v", err)
	}

	srv, err := simsrv.NewServer(simsrv.Config{
		Workers:         *workers,
		Queue:           *queue,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		MemoCapacity:    *memoCap,
		AllowInject:     *allowInject,
		CacheDir:        *cacheDir,
		MemBudget:       memBytes,
		TemplateBudget:  tmplBytes,
	})
	if err != nil {
		log.Fatalf("simd: %v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go serve(httpSrv, errc)
	log.Printf("simd: serving on %s (workers=%d queue=%d max-deadline=%s inject=%v cache-dir=%q mem-budget=%s template-budget=%s)",
		*addr, *workers, *queue, *maxDeadline, *allowInject, *cacheDir,
		units.HumanBytes(memBytes), units.HumanBytes(tmplBytes))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("simd: %v", err)
	case sig := <-sigc:
		log.Printf("simd: %s: draining", sig)
	}

	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("simd: shutdown: %v", err)
	}
	srv.Close()
	log.Printf("simd: drained")
}

// serve runs the HTTP listener as this command's one goroutine, under the
// panic boundary the simlint panicboundary rule demands: a listener panic
// becomes an orderly fatal error instead of a bare process crash.
//
//simlint:panicboundary
func serve(s *http.Server, errc chan<- error) {
	defer func() {
		if r := recover(); r != nil {
			errc <- fmt.Errorf("listener panicked: %v", r)
		}
	}()
	if err := s.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		errc <- err
	}
}
