// Package cache implements the set-associative LRU data caches of the
// simulated processors.
//
// Every cache is private to one simulated context and is not goroutine-safe.
// A cache the hardware shares between co-scheduled contexts (an SMT core's
// L1, a per-chip L2) is modelled as static slices, one per context (see
// Config.Partition): the paper's own SMT model ("the effective number of TLB
// entries could potentially be halved", §3.2), and what keeps every run's
// counters a pure function of its config.
//
// A line is either resident or not. The model keeps no dirty state, because
// the cost model charges no writeback: a store probes and fills exactly like
// a load.
package cache

import (
	"fmt"
	"math/bits"
	"unsafe"

	"hugeomp/internal/units"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int64
	Ways      int
	LineSize  int64 // defaults to units.CacheLineSize
}

// maxAssoc bounds associativity to what the packed per-set metadata encodes:
// a 4-bit way ID per LRU-order position. The paper-era processors top out at
// 16 ways, and the bound is what makes every set's replacement and residency
// state one 16-byte control block.
const maxAssoc = 16

// Cache is one set-associative LRU cache level, owned by one simulated
// context and driven by that context's goroutine only.
//
// The simulated access path is the hottest loop in the simulator, so the
// per-set metadata is packed and interleaved to minimise distinct host cache
// lines touched per simulated access. Each set owns one contiguous block of
// uint64 words (block 0 on a 64-byte host line boundary):
//
//   - word 0 is the LRU order nibble vector: nibble 0 is the MRU way ID,
//     nibble assoc-1 the LRU victim. A recency refresh is a
//     shift-and-insert, eviction recycles the top nibble, and the whole
//     "stamp scan" of a timestamp scheme disappears — victim selection
//     reads one word;
//
//   - word 1 holds one valid bit per way: "first invalid way by index" —
//     the victim preference that keeps the old scan order — is a
//     trailing-zero count of the inverted mask;
//
//   - words 2.. hold the ways' 32-bit set-relative tags
//     (lineAddr >> setBits), two per word in ascending way order.
//
// Order, valid bits and a 16-way set's tags together are 80 bytes, so a
// whole set's replacement and residency metadata lands on one or two
// adjacent host lines instead of the three scattered arrays of the previous
// layout; a 2-way set (the Opteron L1) is one 32-byte half-line.
type Cache struct {
	// blocks holds the per-set metadata blocks, blockWords words per set:
	// word 0 order, word 1 valid bits, words 2.. tags. Aligned so block 0
	// starts on a 64-byte host line.
	blocks []uint64

	assoc      int
	sets       int
	setMask    uint64
	setBits    uint
	blockWords int    // words per set block: 2 + ceil(assoc/2)
	orderMask  uint64 // low assoc nibbles
}

// geometry validates cfg and returns its line size, line count and
// associativity, applying New's defaults.
func (cfg Config) geometry() (ls int64, nLines, assoc int, err error) {
	ls = cfg.LineSize
	if ls == 0 {
		ls = units.CacheLineSize
	}
	if ls < 0 || ls&(ls-1) != 0 {
		return 0, 0, 0, fmt.Errorf("cache: line size %d not a power of two", ls)
	}
	nLines = int(cfg.SizeBytes / ls)
	if nLines <= 0 {
		return 0, 0, 0, fmt.Errorf("cache: %d bytes hold no %d-byte line", cfg.SizeBytes, ls)
	}
	assoc = cfg.Ways
	if assoc <= 0 || assoc > nLines {
		assoc = nLines
	}
	sets := nLines / assoc
	if sets*assoc != nLines {
		return 0, 0, 0, fmt.Errorf("cache: %d lines not divisible by %d ways", nLines, assoc)
	}
	if sets&(sets-1) != 0 {
		return 0, 0, 0, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if assoc > maxAssoc {
		return 0, 0, 0, fmt.Errorf("cache: associativity %d exceeds the packed-set limit of %d ways (give the config an explicit, hardware-like way count)", assoc, maxAssoc)
	}
	return ls, nLines, assoc, nil
}

// Partition returns the geometry of one of share equal static slices of
// the cache: the same associativity over 1/share of the sets, rounded down
// to a power of two because the set index is a mask. Sharer counts that
// divide the set count — 1, 2, 4 and 8 on every built-in model — get
// exactly 1/share of the capacity; the rest get the largest valid slice
// below it. A single-set cache is sliced by ways instead.
func (cfg Config) Partition(share int) Config {
	ls, nLines, assoc, err := cfg.geometry()
	if share <= 1 || err != nil {
		return cfg // New reports an invalid geometry
	}
	sets := nLines / assoc
	if sets == 1 {
		cfg.SizeBytes = int64(nLines/share) * ls
		return cfg
	}
	if sets /= share; sets > 0 {
		sets = 1 << (bits.Len(uint(sets)) - 1)
	}
	cfg.SizeBytes = int64(sets*assoc) * ls
	return cfg
}

// New builds a cache from cfg, or reports why its geometry is invalid.
func New(cfg Config) (*Cache, error) {
	_, nLines, assoc, err := cfg.geometry()
	if err != nil {
		return nil, err
	}
	sets := nLines / assoc
	orderMask := ^uint64(0)
	if assoc < 16 {
		orderMask = (uint64(1) << (4 * assoc)) - 1
	}
	// The per-set block is exactly order + valid + tag words — padding it
	// (say to a power of two) would inflate the metadata footprint past the
	// host L2 working set for the big simulated L2s, which costs more than
	// the multiply in the index computation.
	blockWords := 2 + (assoc+1)/2
	c := &Cache{
		blocks:     alignedBlocks(sets * blockWords),
		assoc:      assoc,
		sets:       sets,
		setMask:    uint64(sets - 1),
		setBits:    uint(bits.TrailingZeros64(uint64(sets))),
		blockWords: blockWords,
		orderMask:  orderMask,
	}
	c.resetOrder()
	return c, nil
}

// alignedBlocks allocates n metadata words starting on a 64-byte host line
// (over-allocating so block 0 can be placed on the boundary).
func alignedBlocks(n int) []uint64 {
	raw := make([]uint64, n+7)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % 64; rem != 0 {
		off = int((64 - rem) / 8)
	}
	return raw[off : off+n]
}

// resetOrder sets every set's recency vector to the identity permutation
// (all ways invalid, so the order is arbitrary but deterministic).
func (c *Cache) resetOrder() {
	var ident uint64
	for w := c.assoc - 1; w >= 0; w-- {
		ident = ident<<4 | uint64(w)
	}
	for s := 0; s < c.sets; s++ {
		c.blocks[s*c.blockWords] = ident
	}
}

// tagAt reads way w's tag from the set block starting at word bb.
func (c *Cache) tagAt(bb, w int) uint32 {
	return uint32(c.blocks[bb+2+(w>>1)] >> (32 * uint(w&1)))
}

// setTag writes way w's tag in the set block starting at word bb.
func (c *Cache) setTag(bb, w int, tag uint32) {
	i := bb + 2 + (w >> 1)
	sh := 32 * uint(w&1)
	c.blocks[i] = c.blocks[i]&^(uint64(0xffffffff)<<sh) | uint64(tag)<<sh
}

// tagOf splits a line address into its set-relative tag.
func (c *Cache) tagOf(lineAddr uint64) uint32 { return uint32(lineAddr >> c.setBits) }

// touchOrder moves way w to the MRU front of the order vector. pos is found
// with a SWAR zero-nibble search: the permutation holds w exactly once in
// the low assoc nibbles, and the borrow trick flags the lowest zero nibble
// exactly.
func touchOrder(order uint64, w int) uint64 {
	if order&0xF == uint64(w) {
		return order
	}
	x := order ^ (uint64(w) * 0x1111111111111111)
	p := uint(bits.TrailingZeros64((x-0x1111111111111111)&^x&0x8888888888888888)) / 4
	below := order & ((uint64(1) << (4 * p)) - 1)
	var above uint64
	if p < 15 {
		above = order &^ ((uint64(1) << (4 * (p + 1))) - 1)
	}
	return above | below<<4 | uint64(w)
}

// Access looks up lineAddr and reports whether it hit; on a miss it fills
// the line, evicting the set's LRU way.
func (c *Cache) Access(lineAddr uint64) bool {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	order := c.blocks[bb]
	valid := c.blocks[bb+1]
	// Set-indexed probe: the MRU head resolves repeat accesses to the same
	// line without scanning the set at all.
	if h := order & 0xF; c.tagAt(bb, int(h)) == tag && valid>>h&1 != 0 {
		return true
	}
	// Hit scan: the set's own block of tag words, one load per word with
	// both halves compared, in ascending way order. An odd-assoc set's
	// unused top half can only phantom-match as way assoc, whose valid bit
	// is never set.
	pat := uint64(tag) | uint64(tag)<<32
	for wi := 2; wi < c.blockWords; wi++ {
		x := c.blocks[bb+wi] ^ pat
		w := 2 * (wi - 2)
		if uint32(x) == 0 && valid>>w&1 != 0 {
			c.blocks[bb] = touchOrder(order, w)
			return true
		}
		if x>>32 == 0 && valid>>(w+1)&1 != 0 {
			c.blocks[bb] = touchOrder(order, w+1)
			return true
		}
	}
	// Miss: choose victim — first invalid way by index if the set has any,
	// else the LRU tail nibble (exact-order LRU).
	var victim int
	if inv := ^valid & (uint64(1)<<c.assoc - 1); inv != 0 {
		victim = bits.TrailingZeros64(inv)
		c.blocks[bb] = touchOrder(order, victim)
	} else {
		victim = int(order >> (4 * uint(c.assoc-1)) & 0xF)
		// Recycling the tail is a rotate: every other way ages one recency
		// position and the refilled way re-enters at the front.
		c.blocks[bb] = (order<<4 | uint64(victim)) & c.orderMask
	}
	c.setTag(bb, victim, tag)
	c.blocks[bb+1] = valid | 1<<victim
	return false
}
