package cache

import "fmt"

// PVB is the 64-entry unified prefetch/victim buffer. It is fully
// associative, holds whole L1 lines, and is probed in parallel with the L1
// on every access (Table 1). Prefetched lines land here rather than in the
// L1 so useless prefetches cannot evict useful L1 lines; L1 victims also
// land here, giving a second chance before the L2.
type PVB struct {
	entries   []line // tag is the line address
	lineShift uint
	clock     uint64
	stats     Stats
}

// NewPVB builds a prefetch/victim buffer of n whole lines of lineBytes.
// lineBytes must be a positive power of two; anything else is a
// configuration bug, reported by panic rather than the former infinite
// shift-search loop.
func NewPVB(n, lineBytes int) *PVB {
	shift, err := lineShiftFor(lineBytes)
	if err != nil {
		panic(fmt.Sprintf("cache: NewPVB: %v", err))
	}
	return &PVB{entries: make([]line, n), lineShift: shift}
}

// Probe reports whether addr's line is buffered, without side effects.
func (b *PVB) Probe(addr uint64) bool {
	tag := addr >> b.lineShift
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].tag == tag {
			return true
		}
	}
	return false
}

// Extract removes addr's line for promotion into the L1 (the hit path).
// It returns whether the line was present and whether it was dirty.
func (b *PVB) Extract(addr uint64) (present, dirty bool) {
	b.stats.Accesses++
	tag := addr >> b.lineShift
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].tag == tag {
			dirty = b.entries[i].dirty
			b.entries[i] = line{}
			b.stats.Hits++
			return true, dirty
		}
	}
	b.stats.Misses++
	return false, false
}

// Insert places a line (a prefetch arrival or an L1 victim), evicting LRU
// if full. It returns the evicted line and whether it was valid+dirty (a
// dirty victim must be written back to the L2).
func (b *PVB) Insert(addr uint64, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	b.clock++
	tag := addr >> b.lineShift
	vi := 0
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].tag == tag {
			// Already buffered; refresh.
			b.entries[i].lru = b.clock
			b.entries[i].dirty = b.entries[i].dirty || dirty
			return 0, false, false
		}
		if !b.entries[i].valid {
			vi = i
		} else if b.entries[vi].valid && b.entries[i].lru < b.entries[vi].lru {
			vi = i
		}
	}
	if b.entries[vi].valid {
		evicted = true
		victimAddr = b.entries[vi].tag << b.lineShift
		victimDirty = b.entries[vi].dirty
		b.stats.Evictions++
		if victimDirty {
			b.stats.Writebacks++
		}
	}
	b.entries[vi] = line{tag: tag, valid: true, dirty: dirty, lru: b.clock}
	return
}

// Stats returns a copy of the counters (Hits/Misses count Extract probes).
func (b *PVB) Stats() Stats { return b.stats }

// Counters returns the live counter struct for telemetry registration.
func (b *PVB) Counters() *Stats { return &b.stats }

// ResetStats zeroes the counters.
func (b *PVB) ResetStats() { b.stats = Stats{} }
