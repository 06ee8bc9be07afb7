package cache

// Warm-checkpoint state of the memory hierarchy. A warm checkpoint holds
// the valid lines (tag/LRU/dirty) of every cache level and the PVB, the
// stream prefetcher's stream table, the origins of the L1D and PVB lines
// that carry one, and the memory-bus cursor. Hierarchy.Save writes them
// straight from the live arrays and Hierarchy.Load reads them straight
// back into a freshly built hierarchy of the same geometry, checking as
// it goes: there is no intermediate copy of the state, and the bytes are
// the checkpoint's only form. Transient machinery — in-flight fills (the
// fills map), pending PVB arrivals, and the write buffer — is
// deliberately absent: checkpoints are taken at a quiesced point where
// the CPU has proven all of it empty (see Hierarchy.Quiesced /
// PruneFills).

import (
	"fmt"
	"slices"

	"repro/internal/wire"
)

// Save writes the hierarchy: the L1D, L1I, L2 and PVB line arrays, the
// stream table, the origin of every L1D or PVB line that has one in
// ascending line order, and the memory-bus cursor (an absolute cycle;
// checkpoints preserve the cycle counter). It must be called only after
// PruneFills proved the hierarchy quiescent.
func (h *Hierarchy) Save(w *wire.Writer) {
	for _, c := range []*Cache{h.L1D, h.L1I, h.L2, h.PVB} {
		c.save(w)
	}
	h.Pref.save(w)
	origin := make(map[uint64]Origin)
	for _, c := range []*Cache{h.L1D, h.PVB} {
		for _, l := range c.lines {
			if l.valid && l.orig != OriginNone {
				origin[l.tag<<c.lineShift] = l.orig
			}
		}
	}
	lines := make([]uint64, 0, len(origin))
	for k := range origin {
		lines = append(lines, k)
	}
	slices.Sort(lines)
	w.U64(uint64(len(lines)))
	for _, k := range lines {
		w.U64(k)
		w.U8(uint8(origin[k]))
	}
	w.U64(h.memFree)
}

// Load reads what Save wrote into an identically configured hierarchy.
// Besides the per-array checks (see Cache.load) and the stream-table
// size, it rejects origin lines that are not strictly ascending or not
// line-aligned, origins other than a prefetching agent, and origins of
// lines resident in neither the L1D nor the PVB. Every accepted encoding
// is therefore canonical: Save writes it back byte for byte. Each origin
// goes to its line in the L1D, else in the PVB.
func (h *Hierarchy) Load(r *wire.Reader) error {
	for _, c := range []*Cache{h.L1D, h.L1I, h.L2, h.PVB} {
		c.load(r)
	}
	h.Pref.load(r)
	for i, n, prev := 0, r.Count(9), uint64(0); i < n && r.Err() == nil; i++ {
		addr, o := r.U64(), Origin(r.U8())
		if r.Err() != nil {
			break
		}
		l := h.L1D.find(addr)
		if l == nil {
			l = h.PVB.find(addr)
		}
		switch {
		case i > 0 && addr <= prev:
			r.Fail(fmt.Errorf("cache: origin line %#x out of order", addr))
		case o != OriginHWPrefetch && o != OriginHelper:
			r.Fail(fmt.Errorf("cache: line %#x has origin %d", addr, o))
		case h.L1D.LineAddr(addr) != addr:
			r.Fail(fmt.Errorf("cache: origin line %#x is not line-aligned", addr))
		case l == nil:
			r.Fail(fmt.Errorf("cache: origin names line %#x, resident in neither L1D nor the PVB", addr))
		default:
			l.orig = o
		}
		prev = addr
	}
	h.memFree = r.U64()
	return r.Err()
}

// save writes the line count, then only the valid lines in ascending
// index order (index set*ways+way, tag, dirty, LRU), then the LRU clock.
// An invalid line carries no state — lookups, fills and victim choice
// test valid before anything else, and invalidation zeroes the line — so
// the valid lines rebuild the whole array exactly. A line's origin is not
// here: Hierarchy.Save lists the few lines that have one.
func (c *Cache) save(w *wire.Writer) {
	w.U64(uint64(len(c.lines)))
	valid := 0
	for _, l := range c.lines {
		if l.valid {
			valid++
		}
	}
	w.U64(uint64(valid))
	for i, l := range c.lines {
		if l.valid {
			w.U32(uint32(i))
			w.U64(l.tag)
			w.Bool(l.dirty)
			w.U64(l.lru)
		}
	}
	w.U64(c.clock)
}

// load clears the array and reads what save wrote; errors latch in r. It
// rejects a line count other than the array's, line indices that are out
// of range or not strictly ascending, and a line the cache could not hold:
// one outside its tag's set, or a second valid line with one tag in a set.
// The lines come back with no origin.
func (c *Cache) load(r *wire.Reader) {
	r.Expect(uint64(len(c.lines)), "lines in cache "+c.name)
	clear(c.lines)
	next := 0 // the lowest index the next listed line may take
	for i, n := 0, r.Count(21); i < n; i++ {
		idx := int(r.U32())
		l := line{tag: r.U64(), valid: true, dirty: r.Bool(), lru: r.U64()}
		if r.Err() != nil {
			return
		}
		if idx < next || idx >= len(c.lines) {
			r.Fail(fmt.Errorf("cache %s: line index %d out of order or range", c.name, idx))
			return
		}
		set := idx / c.ways
		if int(l.tag)&(c.sets-1) != set || slices.ContainsFunc(c.lines[set*c.ways:idx], func(o line) bool { return o.valid && o.tag == l.tag }) {
			r.Fail(fmt.Errorf("cache %s: line %d is outside its tag's set or repeats a tag", c.name, idx))
			return
		}
		c.lines[idx] = l
		next = idx + 1
	}
	c.clock = r.U64()
}

// save writes the stream table: its size, then per stream the valid flag,
// next line, direction and last use, then the clock. Launched/Confirmed
// are observability counters with no behavioral effect and are not saved.
func (p *StreamPrefetcher) save(w *wire.Writer) {
	w.U64(uint64(len(p.streams)))
	for _, s := range p.streams {
		w.Bool(s.valid)
		w.U64(s.nextLine)
		w.U64(uint64(s.dir))
		w.U64(s.lastUse)
	}
	w.U64(p.clock)
}

// load reads what save wrote into a table of the same size; errors latch
// in r.
func (p *StreamPrefetcher) load(r *wire.Reader) {
	r.Expect(uint64(len(p.streams)), "streams")
	for i := range p.streams {
		p.streams[i] = stream{valid: r.Bool(), nextLine: r.U64(), dir: int64(r.U64()), lastUse: r.U64()}
	}
	p.clock = r.U64()
}

// Quiesced reports whether no background machinery is in flight at cycle
// now: no pending PVB arrivals, an empty write buffer, and no in-flight
// fill still due in the future.
func (h *Hierarchy) Quiesced(now uint64) bool {
	if len(h.pendingPVB) != 0 || len(h.writeBuf) != 0 {
		return false
	}
	for _, f := range h.fills {
		if f.ready > now {
			return false
		}
	}
	return true
}

// PruneFills drops expired in-flight fill tracking. Fill entries are
// normally pruned lazily on the next touch of the line; a checkpoint must
// prune them eagerly instead, because a stale entry would turn a future
// re-miss of that line into a bogus merge. It fails if any fill is still
// genuinely in flight.
func (h *Hierarchy) PruneFills(now uint64) error {
	for line, f := range h.fills {
		if f.ready > now {
			return fmt.Errorf("cache: line %#x still in flight (ready %d > now %d)", line, f.ready, now)
		}
		delete(h.fills, line)
	}
	return nil
}
