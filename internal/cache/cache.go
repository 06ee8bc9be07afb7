// Package cache models the paper's memory hierarchy (Table 1): a 64 KB
// 2-way L1 data cache with 64-byte lines and 3-cycle access, a 2 MB 4-way
// unified L2 with 128-byte lines and 6-cycle access, 100-cycle minimum
// memory latency, write-back write-allocate everywhere, a 64-entry unified
// prefetch/victim buffer probed in parallel with the L1, and a hardware
// stream prefetcher that detects unit-stride miss patterns (positive and
// negative) and prefetches sequential blocks when bandwidth is available.
//
// Caches here track tags, dirty bits, LRU state and each line's origin
// only — data lives in the shared mem.Memory. That is exact for a
// simulator in which functional values come from the memory image and only
// timing flows through the hierarchy.
package cache

import (
	"fmt"

	"repro/internal/stats"
)

// Stats counts events for one cache. The definition lives in the
// telemetry package so stats.Snapshot can embed it without an import
// cycle; the alias keeps every existing call site reading naturally.
type Stats = stats.CacheStats

type line struct {
	tag   uint64
	valid bool
	dirty bool
	orig  Origin // prefetcher that brought the line in, until a demand touch
	lru   uint64
}

// Cache is one set-associative, write-back, write-allocate cache level.
// The prefetch/victim buffer is a Cache too, with one set.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineShift uint
	lines     []line // sets × ways, row-major
	clock     uint64 // LRU timestamp source
	stats     Stats
}

// lineShiftFor returns log2(lineBytes), rejecting sizes that are not a
// positive power of two. Every structure that derives a line shift must go
// through it: the naive `for 1<<shift != lineBytes` loop spins forever on
// a bad size instead of failing.
func lineShiftFor(lineBytes int) (uint, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return 0, fmt.Errorf("line size %d is not a positive power of two", lineBytes)
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
	}
	return shift, nil
}

// NewCache builds a cache with the given geometry. sizeBytes must be
// sets*ways*lineBytes; lineBytes and sets must be powers of two.
func NewCache(name string, sizeBytes, ways, lineBytes int) (*Cache, error) {
	shift, err := lineShiftFor(lineBytes)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %v", name, err)
	}
	if ways <= 0 || sizeBytes%(ways*lineBytes) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by ways*line", name, sizeBytes)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		lines:     make([]line, sets*ways),
	}, nil
}

// MustCache is NewCache that panics; configuration is static.
func MustCache(name string, sizeBytes, ways, lineBytes int) *Cache {
	c, err := NewCache(name, sizeBytes, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

func (c *Cache) set(addr uint64) []line {
	idx := (addr >> c.lineShift) & uint64(c.sets-1)
	return c.lines[int(idx)*c.ways : (int(idx)+1)*c.ways]
}

// find returns addr's resident line, or nil.
func (c *Cache) find(addr uint64) *line {
	tag := addr >> c.lineShift
	s := c.set(addr)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			return &s[i]
		}
	}
	return nil
}

// Probe reports whether addr's line is present without updating LRU or
// stats (used by the prefetcher to filter redundant prefetches).
func (c *Cache) Probe(addr uint64) bool { return c.find(addr) != nil }

// Access looks up addr; on hit it updates LRU (and the dirty bit for
// writes) and returns true. On miss it returns false without filling — the
// hierarchy decides when the fill lands.
func (c *Cache) Access(addr uint64, write bool) bool { return c.lookup(addr, write) != nil }

// lookup is Access returning the hit line (nil on a miss), so the
// hierarchy reads a line's origin in the scan that matched its tag.
func (c *Cache) lookup(addr uint64, write bool) *line {
	c.clock++
	c.stats.Accesses++
	l := c.find(addr)
	if l == nil {
		c.stats.Misses++
		return nil
	}
	l.lru = c.clock
	l.dirty = l.dirty || write
	c.stats.Hits++
	return l
}

// Fill installs addr's line with origin orig, returning the evicted victim
// if one was valid. dirty marks the incoming line (write-allocate stores
// fill dirty). It makes one pass over the set: a resident line is
// refreshed, else the line takes the first invalid way, else the least
// recently used one.
func (c *Cache) Fill(addr uint64, dirty bool, orig Origin) (victimAddr uint64, victimDirty, evicted bool) {
	c.clock++
	tag := addr >> c.lineShift
	s := c.set(addr)
	vi := -1
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			// Already present (a racing fill): just refresh.
			s[i].lru = c.clock
			s[i].dirty = s[i].dirty || dirty
			s[i].orig = orig
			return 0, false, false
		}
		if vi < 0 || s[vi].valid && (!s[i].valid || s[i].lru < s[vi].lru) {
			vi = i
		}
	}
	if s[vi].valid {
		evicted = true
		victimDirty = s[vi].dirty
		victimAddr = s[vi].tag << c.lineShift
		c.stats.Evictions++
		if victimDirty {
			c.stats.Writebacks++
		}
	}
	s[vi] = line{tag: tag, valid: true, dirty: dirty, orig: orig, lru: c.clock}
	return victimAddr, victimDirty, evicted
}

// Extract removes addr's line (a PVB hit promoting it into the L1),
// reporting whether it was present, whether it was dirty, and its origin.
// It counts as an access, so the PVB's Hits/Misses count extracts.
func (c *Cache) Extract(addr uint64) (present, dirty bool, orig Origin) {
	c.stats.Accesses++
	l := c.find(addr)
	if l == nil {
		c.stats.Misses++
		return false, false, OriginNone
	}
	c.stats.Hits++
	present, dirty, orig = true, l.dirty, l.orig
	*l = line{}
	return
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Counters returns the live counter struct, which the core's ResetStats
// zeroes in place.
func (c *Cache) Counters() *Stats { return &c.stats }

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }
