// Corpus for the lockorder analyzer. The test configures the three-level
// order "L2.mu < Shard, Bank < Cache", a hierarchy deep enough to exercise
// every rule.
package a

import "sync"

type L2 struct{ mu sync.Mutex }

type Shard struct{ mu sync.Mutex }

type Bank struct{ mu sync.Mutex }

type Cache struct{ mu sync.Mutex }

type Foreign struct{ mu sync.Mutex }

// --- negative controls: the documented order, direct and through calls ----

// Straight-line acquisition in rank order is fine.
func good(l2 *L2, sh *Shard, c *Cache) {
	l2.mu.Lock()
	sh.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	sh.mu.Unlock()
	l2.mu.Unlock()
}

// lockShard takes a shard lock: callers above Shard rank may hold theirs.
func lockShard(sh *Shard) {
	sh.mu.Lock()
	sh.mu.Unlock()
}

// Holding the outermost lock across a call that acquires a lower-ranked
// one follows the hierarchy.
func goodThroughCall(l2 *L2, sh *Shard) {
	l2.mu.Lock()
	lockShard(sh)
	l2.mu.Unlock()
}

// Releasing before the call keeps the held set empty: no edge, no report.
func releasedBeforeCall(c *Cache, sh *Shard) {
	c.mu.Lock()
	c.mu.Unlock()
	lockShard(sh)
}

// --- direct rank inversions ------------------------------------------------

// Reversed acquisition in one function.
func reversed(sh *Shard, c *Cache) {
	c.mu.Lock()
	sh.mu.Lock() // want `lock order violation`
	sh.mu.Unlock()
	c.mu.Unlock()
}

// Two same-class locks at once.
func twoCaches(c1, c2 *Cache) {
	c1.mu.Lock()
	c2.mu.Lock() // want `two Cache-class locks`
	c2.mu.Unlock()
	c1.mu.Unlock()
}

// Two classes of one rank level never nest, in either order.
func shardThenBank(sh *Shard, b *Bank) {
	sh.mu.Lock()
	b.mu.Lock() // want `Bank\.mu acquired while Shard\.mu is held: they share a level`
	b.mu.Unlock()
	sh.mu.Unlock()
}

// --- interprocedural rank inversion two calls deep -------------------------

// inner actually takes the shard lock.
func inner(sh *Shard) {
	sh.mu.Lock()
	sh.mu.Unlock()
}

// mid only forwards; its summary must still say "acquires Shard.mu".
func mid(sh *Shard) {
	inner(sh)
}

// outer holds a Cache lock across mid → inner → Shard.mu.Lock: a rank
// inversion assembled across two call edges. The report carries the chain.
func outer(sh *Shard, c *Cache) {
	c.mu.Lock()
	mid(sh) // want `lock order violation: Shard\.mu acquired while Cache\.mu is held.*acquisition path:.*call a\.mid.*call a\.inner.*sh\.mu\.Lock`
	c.mu.Unlock()
}

// --- nestings with an end outside the hierarchy ---------------------------

// A ranked lock under an unranked one: a lock outside the order held across
// a ranked acquisition hides the ordering from review.
func foreignOverRanked(f *Foreign, sh *Shard) {
	f.mu.Lock()
	lockShard(sh) // want `lock Shard\.mu acquired while Foreign\.mu is held, but Foreign\.mu is outside the documented hierarchy`
	f.mu.Unlock()
}

// An unranked lock under a ranked one, two calls deep: every nesting must be
// ranked, leaf locks included, so no cycle can form among unranked locks.
type Leaf struct{ mu sync.Mutex }

func lockLeaf(lf *Leaf) {
	lf.mu.Lock()
	lf.mu.Unlock()
}

func viaLeaf(lf *Leaf) {
	lockLeaf(lf)
}

func rankedOverLeaf(c *Cache, lf *Leaf) {
	c.mu.Lock()
	viaLeaf(lf) // want `lock Leaf\.mu acquired while Cache\.mu is held, but Leaf\.mu is outside the documented hierarchy.*acquisition path:.*call a\.viaLeaf.*call a\.lockLeaf.*lf\.mu\.Lock`
	c.mu.Unlock()
}

// An unranked lock taken and released on its own nests with nothing.
func leafAlone(lf *Leaf) {
	lockLeaf(lf)
}

// --- same-lock re-acquisition ---------------------------------------------

func selfDeadlock(c *Cache) {
	c.mu.Lock()
	c.mu.Lock() // want `two Cache-class locks`
	c.mu.Unlock()
	c.mu.Unlock()
}

// --- function literals -----------------------------------------------------

// A literal runs with its own lock context: acquiring a shard lock inside
// one while the caller holds a cache lock is not a (synchronous) inversion
// at this site, but the acquisition still folds into the summary — callers
// of lockViaLit holding a Cache lock are flagged at their own call site.
func lockViaLit(sh *Shard) {
	go func() {
		sh.mu.Lock()
		sh.mu.Unlock()
	}()
}

func callerOfLit(c *Cache, sh *Shard) {
	c.mu.Lock()
	lockViaLit(sh) // want `lock order violation`
	c.mu.Unlock()
}
