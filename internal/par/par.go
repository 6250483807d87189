// Package par provides the bounded worker pool used by the experiment
// harness. Every Fig. 4/Fig. 5 cell and every sweep point builds its own
// core.System — the cells share no state — so they can run concurrently;
// the pool bounds concurrency at GOMAXPROCS and returns results in input
// order, keeping the harness output deterministic regardless of which
// worker finished first.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(0..n-1) on a bounded worker pool and returns the results in
// index order. Concurrency is min(n, GOMAXPROCS). If any call fails, Map
// returns the error of the lowest failing index (deterministic even when
// several cells fail); all cells still run to completion.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n <= 0 {
		return out, nil
	}
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
