// Corpus for lockorder's hot-path defer rule. The test leaves this package
// out of lockorder.Packages: the rule must report everywhere, not only where
// the rank rules do.
package hot

import "sync"

type Cache struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	set map[uint64]bool
}

// hot is on the per-access path: it must not defer its unlock.
//
//simlint:hotpath
func hot(c *Cache) {
	c.mu.Lock()
	defer c.mu.Unlock() // want `defer c\.mu\.Unlock\(\) in a //simlint:hotpath function`
}

// Read locks count too.
//
//simlint:hotpath
func hotRead(c *Cache) bool {
	c.rw.RLock()
	defer c.rw.RUnlock() // want `defer c\.rw\.RUnlock\(\) in a //simlint:hotpath function`
	return c.set[1]
}

// Explicit unlocks are the sanctioned hot-path shape.
//
//simlint:hotpath
func hotExplicit(c *Cache) bool {
	c.mu.Lock()
	v := c.set[1]
	c.mu.Unlock()
	return v
}

// Outside a hotpath, deferring the unlock is idiomatic and encouraged.
func cold(c *Cache) {
	c.mu.Lock()
	defer c.mu.Unlock()
}

// Non-mutex defers in a hotpath are fine.
//
//simlint:hotpath
func hotCleanup(c *Cache, done func()) {
	defer done()
	c.mu.Lock()
	c.mu.Unlock()
}

// A function literal inside a hotpath function runs in its own context (it
// is typically a slow-path closure handed elsewhere); its defers are exempt.
//
//simlint:hotpath
func hotWithLit(c *Cache) func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
}
