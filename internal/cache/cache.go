// Package cache implements the set-associative, write-back caches used by
// the secure-memory system: the shared last-level cache and the dedicated
// metadata cache that holds encryption and integrity-tree counters
// (Table I: 8 MB 8-way LLC, 128 KB 8-way metadata cache, 64 B lines).
package cache

import (
	"fmt"
	"sync"
)

// Victim describes a line evicted to make room for an insertion.
type Victim struct {
	// Addr is the line-aligned address of the evicted line.
	Addr uint64
	// Dirty reports whether the line held unwritten modifications; dirty
	// victims generate a memory write-back (and, for metadata lines, a
	// parent-counter increment).
	Dirty bool
}

// Stats accumulates cache activity counters.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// HitRate returns hits over total accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative write-back cache with true-LRU replacement.
// Addresses are byte addresses; the cache operates on aligned lines.
// All methods are safe for concurrent use; fields below mu are protected
// by it, fields above it are immutable after New.
type Cache struct {
	lineBytes uint64
	numSets   uint64
	ways      int

	mu    sync.Mutex
	sets  []way // numSets * ways, row-major
	clock uint64
	stats Stats
}

// New constructs a cache of sizeBytes capacity with the given associativity
// and line size. Size must be a power-of-two multiple of ways*lineBytes so
// set indexing stays a mask.
func New(sizeBytes uint64, ways int, lineBytes uint64) (*Cache, error) {
	if ways <= 0 || lineBytes == 0 || sizeBytes == 0 {
		return nil, fmt.Errorf("cache: invalid geometry size=%d ways=%d line=%d", sizeBytes, ways, lineBytes)
	}
	if sizeBytes%(uint64(ways)*lineBytes) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line %d", sizeBytes, uint64(ways)*lineBytes)
	}
	numSets := sizeBytes / (uint64(ways) * lineBytes)
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", numSets)
	}
	return &Cache{
		lineBytes: lineBytes,
		numSets:   numSets,
		ways:      ways,
		sets:      make([]way, numSets*uint64(ways)),
	}, nil
}

// MustNew is New for statically known-good geometries.
func MustNew(sizeBytes uint64, ways int, lineBytes uint64) *Cache {
	c, err := New(sizeBytes, ways, lineBytes)
	if err != nil {
		panic(err) //morphlint:allow panicpolicy -- Must-style constructor for compile-time geometries; New is the checked form
	}
	return c
}

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return int(c.numSets) * c.ways }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache) index(addr uint64) (setBase uint64, tag uint64) {
	line := addr / c.lineBytes
	return (line % c.numSets) * uint64(c.ways), line
}

// Access looks up addr, updating recency and the dirty bit on a hit.
// It returns whether the access hit; misses are NOT filled (use Fill).
func (c *Cache) Access(addr uint64, write bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	base, tag := c.index(addr)
	c.clock++
	for i := 0; i < c.ways; i++ {
		w := &c.sets[base+uint64(i)]
		if w.valid && w.tag == tag {
			w.used = c.clock
			if write {
				w.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains probes for addr without touching recency or statistics.
func (c *Cache) Contains(addr uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	base, tag := c.index(addr)
	for i := 0; i < c.ways; i++ {
		w := &c.sets[base+uint64(i)]
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts addr (which must have missed) with the given dirty state,
// evicting the LRU way if the set is full. The victim, if any, is returned.
func (c *Cache) Fill(addr uint64, dirty bool) (Victim, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fill(addr, dirty, false)
}

// FillLowPriority inserts addr at the LRU position instead of MRU (LIP-style
// insertion): the line is the set's first eviction candidate unless a
// subsequent hit promotes it. Type-aware metadata caching uses this to keep
// high-coverage upper-tree lines resident at the expense of leaf lines.
func (c *Cache) FillLowPriority(addr uint64, dirty bool) (Victim, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fill(addr, dirty, true)
}

func (c *Cache) fill(addr uint64, dirty bool, lowPriority bool) (Victim, bool) {
	base, tag := c.index(addr)
	c.clock++
	// If the line is somehow present (double fill), refresh it in place.
	var lru *way
	for i := 0; i < c.ways; i++ {
		w := &c.sets[base+uint64(i)]
		if w.valid && w.tag == tag {
			w.used = c.clock
			w.dirty = w.dirty || dirty
			return Victim{}, false
		}
		if !w.valid {
			if lru == nil || lru.valid {
				lru = w
			}
			continue
		}
		if lru == nil || (lru.valid && w.used < lru.used) {
			lru = w
		}
	}
	var victim Victim
	evicted := false
	if lru.valid {
		victim = Victim{Addr: lru.tag * c.lineBytes, Dirty: lru.dirty}
		evicted = true
		c.stats.Evictions++
		if lru.dirty {
			c.stats.DirtyEvictions++
		}
	}
	used := c.clock
	if lowPriority {
		// Insert at the cold end: older than every resident line, so
		// the next eviction takes this line unless a hit promotes it.
		used = 0
	}
	*lru = way{tag: tag, valid: true, dirty: dirty, used: used}
	return victim, evicted
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.sets {
		if c.sets[i].valid {
			n++
		}
	}
	return n
}
