package cache

// Checkpointable state for the memory hierarchy. A warm checkpoint captures
// the valid lines (tag/LRU/dirty) of every cache level and the PVB, the
// stream prefetcher's stream table, the origins of the L1D and PVB lines
// that carry one, and the memory-bus cursor — together one HierState,
// which this package alone encodes and decodes. Transient machinery —
// in-flight fills (the fills map), pending PVB arrivals, and the write
// buffer — is deliberately absent: checkpoints are taken at a quiesced
// point where the CPU has proven all of it empty (see Hierarchy.Quiesced /
// PruneFills).
//
// Every State method deep-copies out and every SetState method deep-copies
// in: one checkpoint may be restored into many cores concurrently, so no
// restored core may alias checkpoint-owned slices or maps.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// LineState is one valid line's checkpointable state. Index is the
// line's slot in the array, set*ways+way. A line's origin is not here:
// HierState carries the few lines that have one.
type LineState struct {
	Index uint32
	Tag   uint64
	Dirty bool
	LRU   uint64
}

// CacheState is the checkpointable state of one cache level or of the PVB:
// the line count plus only the valid lines, in ascending index order. An
// invalid line carries no state — lookups, fills and victim choice test
// valid before anything else, and invalidation zeroes the line — so the
// valid lines rebuild the whole array exactly.
type CacheState struct {
	NumLines int
	Lines    []LineState
	Clock    uint64
}

// captureLines records ls's valid lines.
func captureLines(ls []line, clock uint64) CacheState {
	s := CacheState{NumLines: len(ls), Clock: clock}
	for i, l := range ls {
		if l.valid {
			s.Lines = append(s.Lines, LineState{Index: uint32(i), Tag: l.tag, Dirty: l.dirty, LRU: l.lru})
		}
	}
	return s
}

// restoreLines clears ls, then fills in s's valid lines (with no origin).
func restoreLines(ls []line, s CacheState, name string) error {
	if s.NumLines != len(ls) {
		return fmt.Errorf("%s: state has %d lines, array has %d", name, s.NumLines, len(ls))
	}
	clear(ls)
	for _, l := range s.Lines {
		if int(l.Index) >= len(ls) {
			return fmt.Errorf("%s: state line %d out of range (%d lines)", name, l.Index, len(ls))
		}
		ls[l.Index] = line{tag: l.Tag, valid: true, dirty: l.Dirty, lru: l.LRU}
	}
	return nil
}

// State captures the cache's tag/LRU state.
func (c *Cache) State() CacheState { return captureLines(c.lines, c.clock) }

// SetState restores state captured from an identically configured cache.
func (c *Cache) SetState(s CacheState) error {
	if err := restoreLines(c.lines, s, "cache "+c.name); err != nil {
		return err
	}
	c.clock = s.Clock
	return nil
}

// StreamState is the checkpointable state of the stream prefetcher.
// Launched/Confirmed are observability counters with no behavioral effect
// and are not captured.
type StreamState struct {
	Streams []StreamEntry
	Clock   uint64
}

// StreamEntry is one detected stream.
type StreamEntry struct {
	Valid    bool
	NextLine uint64
	Dir      int64
	LastUse  uint64
}

// State captures the stream table.
func (p *StreamPrefetcher) State() StreamState {
	s := StreamState{Streams: make([]StreamEntry, len(p.streams)), Clock: p.clock}
	for i, st := range p.streams {
		s.Streams[i] = StreamEntry{Valid: st.valid, NextLine: st.nextLine, Dir: st.dir, LastUse: st.lastUse}
	}
	return s
}

// SetState restores state captured from an identically sized prefetcher.
func (p *StreamPrefetcher) SetState(s StreamState) error {
	if len(s.Streams) != len(p.streams) {
		return fmt.Errorf("stream prefetcher: state has %d streams, prefetcher has %d", len(s.Streams), len(p.streams))
	}
	for i, st := range s.Streams {
		p.streams[i] = stream{valid: st.Valid, nextLine: st.NextLine, dir: st.Dir, lastUse: st.LastUse}
	}
	p.clock = s.Clock
	return nil
}

// HierState is the whole hierarchy's checkpointable state: every cache
// level, the PVB, the stream prefetcher, the origin of every L1D or PVB
// line that has one (keyed by line address), and the memory-bus cursor
// (MemFree is an absolute cycle; checkpoints preserve the cycle counter).
type HierState struct {
	L1D, L1I, L2, PVB CacheState
	Pref              StreamState
	Origin            map[uint64]Origin
	MemFree           uint64
}

// State captures the hierarchy. It must be called only after PruneFills
// proved the hierarchy quiescent.
func (h *Hierarchy) State() HierState {
	s := HierState{
		L1D: h.L1D.State(), L1I: h.L1I.State(), L2: h.L2.State(), PVB: h.PVB.State(),
		Pref:    h.Pref.State(),
		Origin:  make(map[uint64]Origin),
		MemFree: h.memFree,
	}
	for _, c := range []*Cache{h.L1D, h.PVB} {
		for _, l := range c.lines {
			if l.valid && l.orig != OriginNone {
				s.Origin[l.tag<<c.lineShift] = l.orig
			}
		}
	}
	return s
}

// SetState restores state captured from an identically configured
// hierarchy. Each origin goes to its line in the L1D, else in the PVB; an
// origin naming a line in neither is an error.
func (h *Hierarchy) SetState(s HierState) error {
	if err := errors.Join(h.L1D.SetState(s.L1D), h.L1I.SetState(s.L1I), h.L2.SetState(s.L2),
		h.PVB.SetState(s.PVB), h.Pref.SetState(s.Pref)); err != nil {
		return err
	}
	for addr, o := range s.Origin {
		l := h.L1D.find(addr)
		if l == nil {
			l = h.PVB.find(addr)
		}
		if l == nil {
			return fmt.Errorf("cache: origin names line %#x, resident in neither L1D nor the PVB", addr)
		}
		l.orig = o
	}
	h.memFree = s.MemFree
	return nil
}

// Encode writes s deterministically: the four line arrays, the stream
// table, the origin map in ascending line order, and the bus cursor.
func (s *HierState) Encode(w *wire.Writer) {
	for _, c := range []*CacheState{&s.L1D, &s.L1I, &s.L2, &s.PVB} {
		w.U64(uint64(c.NumLines))
		w.U64(uint64(len(c.Lines)))
		for _, l := range c.Lines {
			w.U32(l.Index)
			w.U64(l.Tag)
			w.Bool(l.Dirty)
			w.U64(l.LRU)
		}
		w.U64(c.Clock)
	}
	w.U64(uint64(len(s.Pref.Streams)))
	for _, st := range s.Pref.Streams {
		w.Bool(st.Valid)
		w.U64(st.NextLine)
		w.U64(uint64(st.Dir))
		w.U64(st.LastUse)
	}
	w.U64(s.Pref.Clock)
	lines := make([]uint64, 0, len(s.Origin))
	for k := range s.Origin {
		lines = append(lines, k)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U64(uint64(len(lines)))
	for _, k := range lines {
		w.U64(k)
		w.U8(uint8(s.Origin[k]))
	}
	w.U64(s.MemFree)
}

// DecodeHierState reads what Encode wrote; errors latch in r. It rejects
// line indices that are out of range or not strictly ascending, origin
// lines that are not strictly ascending and origins other than a
// prefetching agent, so every accepted encoding is canonical.
func DecodeHierState(r *wire.Reader) HierState {
	var s HierState
	for _, c := range []*CacheState{&s.L1D, &s.L1I, &s.L2, &s.PVB} {
		c.NumLines = int(r.U64())
		for i, n := 0, r.Count(21); i < n && r.Err() == nil; i++ {
			l := LineState{Index: r.U32(), Tag: r.U64(), Dirty: r.Bool(), LRU: r.U64()}
			if r.Err() == nil && (uint64(l.Index) >= uint64(c.NumLines) || i > 0 && l.Index <= c.Lines[i-1].Index) {
				r.Fail(fmt.Errorf("cache: line index %d out of order or range", l.Index))
			}
			c.Lines = append(c.Lines, l)
		}
		c.Clock = r.U64()
	}
	for i, n := 0, r.Count(25); i < n && r.Err() == nil; i++ {
		s.Pref.Streams = append(s.Pref.Streams, StreamEntry{
			Valid: r.Bool(), NextLine: r.U64(), Dir: int64(r.U64()), LastUse: r.U64(),
		})
	}
	s.Pref.Clock = r.U64()
	n := r.Count(9)
	s.Origin = make(map[uint64]Origin, n)
	for i, prev := 0, uint64(0); i < n && r.Err() == nil; i++ {
		k := r.U64()
		if i > 0 && k <= prev && r.Err() == nil {
			r.Fail(fmt.Errorf("cache: origin line %#x out of order", k))
		}
		prev = k
		o := Origin(r.U8())
		if o != OriginHWPrefetch && o != OriginHelper && r.Err() == nil {
			r.Fail(fmt.Errorf("cache: line %#x has origin %d", k, o))
		}
		s.Origin[k] = o
	}
	s.MemFree = r.U64()
	return s
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
