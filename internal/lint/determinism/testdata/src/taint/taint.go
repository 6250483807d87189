// Corpus for the determinism analyzer's taint solver. The test configures
// SinkTypes = "Counters" and SinkFuncs = "taint.Key", and puts this package
// in scope, so every source call here is also reported as a direct read.
package taint

import (
	"context"
	"math/rand"
	"runtime"
	"time"
)

// Counters stands in for the profile counter types (a sink type).
type Counters struct {
	N uint64
	T int64
}

func (c *Counters) Add(v int64) { c.T += v }

// Key stands in for the memoization key builders (a sink func).
func Key(parts ...int64) int64 {
	var k int64
	for _, p := range parts {
		k = k*31 + p
	}
	return k
}

// --- negative controls ------------------------------------------------------

// Deterministic values into a sink are fine.
func goodAdd(c *Counters, cycles int64) {
	c.Add(cycles)
	c.Add(42)
}

// A seeded *rand.Rand owned by the run is deterministic: method draws are
// not sources (only the package-level generator is).
func seededRand(c *Counters) {
	rng := rand.New(rand.NewSource(7))
	c.Add(rng.Int63())
}

// context.Context values are sanitized: service deadline contexts carry wall
// clock by design and never feed simulation results.
func viaContext(c *Counters, ctx context.Context) {
	d, _ := ctx.Deadline()
	_ = d
	c.Add(0)
}

// Wall clock that reaches no sink is reported only as a direct read.
func timedButUnsunk() time.Duration {
	start := time.Now()      // want `wall-clock read time\.Now`
	return time.Since(start) // want `wall-clock read time\.Since`
}

// --- direct source → sink ---------------------------------------------------

func direct(c *Counters) {
	c.Add(time.Now().UnixNano()) // want `non-deterministic value flows into \(\*taint\.Counters\)\.Add.*time\.Now` `wall-clock read time\.Now`
}

func schedState(c *Counters) {
	c.Add(int64(runtime.NumGoroutine())) // want `runtime\.NumGoroutine.*scheduler` `scheduler/host-state read runtime\.NumGoroutine`
}

func globalRand(c *Counters) {
	c.Add(rand.Int63()) // want `global math/rand` `global rand\.Int63 in a simulator package`
}

// --- laundering through a helper return value -------------------------------

// stamp launders the wall clock through a return value; its summary carries
// the source chain.
func stamp() int64 {
	return time.Now().UnixNano() // want `wall-clock read time\.Now`
}

func laundered(c *Counters) {
	c.Add(stamp()) // want `flows into \(\*taint\.Counters\)\.Add.*time\.Now.*returned by taint\.stamp`
}

// Two levels: the chain threads both helpers.
func restamp() int64 { return stamp() }

func laundered2(c *Counters) {
	c.Add(restamp()) // want `time\.Now.*returned by taint\.restamp`
}

// --- laundering through a struct field --------------------------------------

type result struct {
	cycles int64
	when   int64
}

func fielded(c *Counters) {
	r := result{when: stamp()}
	c.Add(r.when) // want `time\.Now`
}

// --- parameter sinks: the sink is inside the callee -------------------------

// sinkParam's summary says "param 1 reaches (*taint.Counters).Add".
func sinkParam(c *Counters, v int64) {
	c.Add(v)
}

func callsSinkParam(c *Counters) {
	sinkParam(c, stamp()) // want `time\.Now.*call taint\.sinkParam`
}

// Passing a clean value through the same parameter sink is fine.
func callsSinkParamClean(c *Counters, v int64) {
	sinkParam(c, v)
}

// --- map iteration order ----------------------------------------------------

func mapOrder(c *Counters, m map[int]int64) {
	var last int64
	for _, v := range m {
		last = v // want `assignment to last outside the loop`
	}
	c.Add(last) // want `map iteration order`
}

// --- sink functions ---------------------------------------------------------

func goodKey(n int64) int64 {
	return Key(n, 7)
}

func badKey() int64 {
	return Key(time.Now().UnixNano()) // want `flows into taint\.Key.*time\.Now` `wall-clock read time\.Now`
}

// --- keyed map rebuild ------------------------------------------------------

// Copying a map into another map under the iteration key is the same
// container whatever the order: the rebuild idiom stops map-order taint.
func rebuild(c *Counters, src map[int]int64) {
	dst := make(map[int]int64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	c.Add(dst[0])
}

// The exemption is only about iteration ORDER: a wall-clock value stored
// under a map key still taints the container.
func rebuildStamped(c *Counters, src map[int]int64) {
	dst := make(map[int]int64, len(src))
	for k := range src {
		dst[k] = time.Now().UnixNano() // want `wall-clock read time\.Now` `call time\.Now\(\.\.\.\)\.UnixNano inside a map range`
	}
	c.Add(dst[0]) // want `non-deterministic value flows into \(\*taint\.Counters\)\.Add.*time\.Now`
}
