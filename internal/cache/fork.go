package cache

// Fork returns an independent deep copy of the cache: tags, line states and
// LRU order vectors. The fork reproduces New's 64-byte placement of the
// metadata blocks so the packed-set layout contract holds in the clone too.
func (c *Cache) Fork() *Cache {
	nc := *c
	nc.blocks = alignedBlocks(len(c.blocks))
	copy(nc.blocks, c.blocks)
	return &nc
}
