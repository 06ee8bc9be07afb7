package cache

import "repro/internal/stats"

// Origin records which prefetching agent brought a line into the L1/PVB,
// so the simulator can attribute "misses covered" (Table 4) to
// helper-thread prefetching versus the hardware prefetcher. Demand fills
// and lines a demand access has touched carry OriginNone.
type Origin uint8

// Line origins.
const (
	OriginNone Origin = iota
	OriginHWPrefetch
	OriginHelper
)

// Kind classifies the requester of an access.
type Kind uint8

// Access kinds.
const (
	KindDemand Kind = iota // main-thread load/store
	KindHelper             // helper-thread (slice) load
)

// Level says where an access was satisfied.
type Level uint8

// Service levels.
const (
	LevelL1 Level = iota
	LevelPVB
	LevelL2
	LevelMem
	LevelMerged // merged with an in-flight fill of the same line
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelPVB:
		return "PVB"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	case LevelMerged:
		return "merged"
	}
	return "?"
}

// Result describes one data access.
type Result struct {
	// Latency is load-to-use latency in cycles (≥ LatL1).
	Latency uint64
	// Level says where the line was found.
	Level Level
	// L1Miss reports whether the L1 itself missed (a PVB hit is still an
	// L1 miss architecturally, but it is serviced at hit latency).
	L1Miss bool
	// HelperCovered is set on the first demand touch of a line a helper
	// thread brought in — the "miss covered" event of Table 4.
	HelperCovered bool
	// HWPrefCovered is the same for hardware-prefetched lines.
	HWPrefCovered bool
}

// Params configures the hierarchy. DefaultParams returns Table 1.
type Params struct {
	L1Bytes, L1Ways, L1Line int
	L2Bytes, L2Ways, L2Line int
	ICBytes, ICWays, ICLine int

	LatL1  uint64 // L1 access, including address generation
	LatL2  uint64 // additional L2 access latency
	LatMem uint64 // additional minimum memory latency

	PVBEntries    int
	Streams       int
	PrefetchDepth int

	// MemOccupancy is how long one line transfer holds the memory bus;
	// demand fills queue behind each other, and prefetches issue only when
	// the bus is idle ("when bandwidth is available", Table 1).
	MemOccupancy uint64
	// WriteBufEntries bounds the retired-store write buffer.
	WriteBufEntries int
}

// DefaultParams returns the paper's Table 1 memory system.
func DefaultParams() Params {
	return Params{
		L1Bytes: 64 << 10, L1Ways: 2, L1Line: 64,
		L2Bytes: 2 << 20, L2Ways: 4, L2Line: 128,
		ICBytes: 64 << 10, ICWays: 2, ICLine: 64,
		LatL1: 3, LatL2: 6, LatMem: 100,
		PVBEntries:      64,
		Streams:         16,
		PrefetchDepth:   2,
		MemOccupancy:    4,
		WriteBufEntries: 16,
	}
}

// HierStats aggregates hierarchy-wide counters. The definition lives in
// the telemetry package (see the note on Stats); the alias preserves the
// established name.
type HierStats = stats.HierStats

// fill is one in-flight L1 fill (an MSHR entry): the cycle its data
// arrives and the prefetching agent that started it (OriginNone for a
// demand fill, or once a demand access merged with it).
type fill struct {
	ready uint64
	orig  Origin
}

// pendingFill is a hardware prefetch headed for the PVB.
type pendingFill struct {
	line  uint64
	ready uint64
}

// Hierarchy ties the caches, buffers, prefetcher, and bus together and is
// the single entry point the CPU uses for data and instruction accesses.
type Hierarchy struct {
	P   Params
	L1D *Cache
	L1I *Cache
	L2  *Cache
	// PVB is the 64-entry unified prefetch/victim buffer: a fully
	// associative (one-set) cache of whole L1 lines, probed in parallel
	// with the L1 (Table 1). Prefetched lines land here rather than in
	// the L1 so useless prefetches cannot evict useful L1 lines; L1
	// victims also land here, giving a second chance before the L2. Its
	// LRU clock ticks only on fills, and its Hits/Misses count extracts.
	PVB  *Cache
	Pref *StreamPrefetcher

	// fills tracks in-flight L1 fills by line address (MSHR merging).
	// Entries are pruned lazily: by an L1 hit once the data has arrived,
	// by the PVB arrival of a prefetch, and by PruneFills.
	fills map[uint64]fill

	pendingPVB []pendingFill // prefetch arrivals headed for the PVB
	memFree    uint64        // next cycle the memory bus is free
	writeBuf   []uint64      // line addresses of retired store misses

	Stats HierStats

	// Tracer receives cache-fill and cache-cover events when non-nil.
	Tracer stats.Tracer
}

// NewHierarchy builds the memory system.
func NewHierarchy(p Params) *Hierarchy {
	return &Hierarchy{
		P:     p,
		L1D:   MustCache("L1D", p.L1Bytes, p.L1Ways, p.L1Line),
		L1I:   MustCache("L1I", p.ICBytes, p.ICWays, p.ICLine),
		L2:    MustCache("L2", p.L2Bytes, p.L2Ways, p.L2Line),
		PVB:   MustCache("PVB", p.PVBEntries*p.L1Line, p.PVBEntries, p.L1Line),
		Pref:  NewStreamPrefetcher(p.Streams, p.PrefetchDepth),
		fills: make(map[uint64]fill),
	}
}

// fillL1 installs a line with origin orig into the L1, spilling the
// victim to the PVB (without its origin) and a dirty PVB victim onward to
// the L2.
func (h *Hierarchy) fillL1(line uint64, dirty bool, orig Origin) {
	vAddr, vDirty, ev := h.L1D.Fill(line, dirty, orig)
	if ev {
		pvAddr, pvDirty, pvEv := h.PVB.Fill(vAddr, vDirty, OriginNone)
		if pvEv && pvDirty {
			h.writebackToL2(pvAddr)
		}
	}
}

func (h *Hierarchy) writebackToL2(line uint64) {
	h.Stats.Writebacks++
	// Write-allocate into the L2; a dirty L2 victim goes to memory
	// (writeback bandwidth is not modeled, per Table 1).
	if !h.L2.Access(line, true) {
		h.L2.Fill(line, true, OriginNone)
	}
}

// credit records a demand touch of a line that agent by brought in — the
// "miss covered" event of Table 4 — and reports whether by was a
// prefetching agent, i.e. whether anything was credited.
func (h *Hierarchy) credit(line uint64, by Origin, r *Result, now uint64) bool {
	var name string
	switch by {
	case OriginHelper:
		r.HelperCovered = true
		h.Stats.HelperCovered++
		name = "helper"
	case OriginHWPrefetch:
		r.HWPrefCovered = true
		h.Stats.PrefetchUseful++
		name = "hw"
	default:
		return false
	}
	if h.Tracer != nil {
		h.Tracer.Emit(stats.Event{Cycle: now, Kind: stats.EvCacheCover, Addr: line, Level: name})
	}
	return true
}

// memTransfer schedules one line transfer on the memory bus: it starts no
// earlier than cycle earliest, queues behind the transfer in progress,
// holds the bus MemOccupancy cycles, and its data arrives LatMem after it
// starts. It returns the arrival cycle.
func (h *Hierarchy) memTransfer(earliest uint64) uint64 {
	start := max(earliest, h.memFree)
	h.memFree = start + h.P.MemOccupancy
	return start + h.P.LatMem
}

func (h *Hierarchy) emitFill(line uint64, from string, orig Origin, now uint64) {
	if h.Tracer == nil {
		return
	}
	dir := ""
	switch orig {
	case OriginHelper:
		dir = "helper"
	case OriginHWPrefetch:
		dir = "hw"
	}
	h.Tracer.Emit(stats.Event{Cycle: now, Kind: stats.EvCacheFill, Addr: line, Level: from, Dir: dir})
}

// Access performs the timing for one data access at cycle now. write marks
// stores (which the CPU calls at retire through StoreRetire instead; write
// Accesses here come from the write-buffer drain). kind attributes the
// requester.
func (h *Hierarchy) Access(addr uint64, write bool, kind Kind, now uint64) Result {
	line := h.L1D.LineAddr(addr)
	r := Result{Latency: h.P.LatL1, Level: LevelL1}

	if kind == KindDemand {
		h.Stats.DemandLoads++
	} else {
		h.Stats.HelperAccesses++
	}

	if l := h.L1D.lookup(addr, write); l != nil {
		// L1 hit; may still be waiting on an in-flight fill of this line.
		if f, ok := h.fills[line]; ok {
			if f.ready > now+h.P.LatL1 {
				r.Latency = f.ready - now
				r.Level = LevelMerged
			} else {
				delete(h.fills, line)
			}
		}
		if kind == KindDemand {
			// The first demand touch consumes the line's origin.
			h.credit(line, l.orig, &r, now)
			l.orig = OriginNone
			if r.Latency > h.P.LatL1 {
				h.Stats.DemandStalls++
			}
		}
		return r
	}

	// L1 miss.
	r.L1Miss = true
	if kind == KindDemand {
		h.Stats.DemandLoadMisses++
	}

	// Merge with an in-flight fill of the same line.
	if f, ok := h.fills[line]; ok {
		r.Level = LevelMerged
		r.Latency = max(f.ready, now+h.P.LatL1) - now
		if kind == KindDemand {
			// Attribute partial coverage to whoever started the fill.
			if h.credit(line, f.orig, &r, now) {
				f.orig = OriginNone
				h.fills[line] = f
			}
			h.Stats.DemandStalls++
		}
		// The demand use promotes the line into the L1 (an in-flight
		// prefetch would otherwise have parked it in the PVB).
		h.fillL1(line, write, OriginNone)
		return r
	}

	// Parallel probe of the prefetch/victim buffer. The line moves into
	// the L1 with its origin, unless this demand touch consumes it.
	if present, dirty, orig := h.PVB.Extract(line); present {
		r.Level = LevelPVB
		if kind == KindDemand {
			h.credit(line, orig, &r, now)
			orig = OriginNone
		}
		h.fillL1(line, dirty || write, orig)
		return r
	}

	// L2 lookup.
	orig := OriginNone
	if kind == KindHelper {
		orig = OriginHelper
		h.Stats.HelperMisses++
	}
	if h.L2.Access(addr, false) {
		r.Level = LevelL2
		r.Latency = h.P.LatL1 + h.P.LatL2
		h.fillL1(line, write, orig)
		h.fills[line] = fill{ready: now + r.Latency, orig: orig}
		h.emitFill(line, "l2", orig, now)
	} else {
		ready := h.memTransfer(now + h.P.LatL1 + h.P.LatL2)
		r.Level = LevelMem
		r.Latency = ready - now
		h.L2.Fill(addr, false, OriginNone)
		h.fillL1(line, write, orig)
		h.fills[line] = fill{ready: ready, orig: orig}
		h.emitFill(line, "mem", orig, now)
	}
	if kind == KindDemand {
		h.Stats.DemandStalls++
		// Demand misses train the stream prefetcher.
		h.launchPrefetches(line, now)
	}
	return r
}

// launchPrefetches asks the stream prefetcher for candidates and issues
// those that are new, cacheable, and affordable bandwidth-wise.
func (h *Hierarchy) launchPrefetches(missLine uint64, now uint64) {
	lineBytes := uint64(h.P.L1Line)
	for _, cand := range h.Pref.OnMiss(missLine, lineBytes) {
		if h.L1D.Probe(cand) || h.PVB.Probe(cand) {
			continue
		}
		if _, busy := h.fills[cand]; busy {
			continue
		}
		var ready uint64
		if h.L2.Access(cand, false) {
			ready = now + h.P.LatL1 + h.P.LatL2
		} else {
			// Bandwidth gate: issue memory prefetches only while the bus
			// queue is shallower than one memory latency ("when bandwidth
			// is available", Table 1).
			if h.memFree > now && h.memFree-now >= h.P.LatMem {
				continue
			}
			ready = h.memTransfer(now + h.P.LatL1 + h.P.LatL2)
			h.L2.Fill(cand, false, OriginNone)
		}
		h.Stats.PrefetchIssued++
		h.fills[cand] = fill{ready: ready, orig: OriginHWPrefetch}
		h.pendingPVB = append(h.pendingPVB, pendingFill{line: cand, ready: ready})
		h.emitFill(cand, "pvb", OriginHWPrefetch, now)
	}
}

// StoreRetire retires a store into the memory system through the write
// buffer. It returns false when the write buffer is full, in which case the
// caller must stall retirement and retry.
func (h *Hierarchy) StoreRetire(addr uint64, now uint64) bool {
	if h.L1D.Access(addr, true) {
		return true
	}
	line := h.L1D.LineAddr(addr)
	for _, wb := range h.writeBuf {
		if wb == line {
			return true // already being allocated
		}
	}
	if len(h.writeBuf) >= h.P.WriteBufEntries {
		h.Stats.WriteBufFull++
		return false
	}
	h.writeBuf = append(h.writeBuf, line)
	return true
}

// FetchAccess models the instruction cache for one fetch of pc, returning
// the extra latency beyond the pipelined fetch (0 on hit).
func (h *Hierarchy) FetchAccess(pc uint64, now uint64) uint64 {
	if h.L1I.Access(pc, false) {
		return 0
	}
	h.Stats.ICMisses++
	h.L1I.Fill(pc, false, OriginNone)
	if h.L2.Access(pc, false) {
		return h.P.LatL2
	}
	h.L2.Fill(pc, false, OriginNone)
	return h.memTransfer(now) - now
}

// Tick advances background machinery once per cycle: prefetch arrivals move
// into the PVB and the write buffer drains when the bus allows.
func (h *Hierarchy) Tick(now uint64) {
	if len(h.pendingPVB) > 0 {
		kept := h.pendingPVB[:0]
		for _, pf := range h.pendingPVB {
			if pf.ready > now {
				kept = append(kept, pf)
				continue
			}
			// If a demand access promoted the line to L1 meanwhile, skip.
			if h.L1D.Probe(pf.line) {
				continue
			}
			// The prefetcher keeps the credit only while the fill is still
			// its own: a demand merge (which took the credit) or a newer
			// fill of the line may have replaced it.
			orig := h.fills[pf.line].orig
			if orig != OriginHWPrefetch {
				orig = OriginNone
			}
			if vAddr, vDirty, ev := h.PVB.Fill(pf.line, false, orig); ev && vDirty {
				h.writebackToL2(vAddr)
			}
			delete(h.fills, pf.line)
		}
		h.pendingPVB = kept
	}

	// Drain one write-buffer entry per cycle when the bus is free (so its
	// memory transfer starts now).
	if len(h.writeBuf) > 0 && h.memFree <= now {
		line := h.writeBuf[0]
		h.writeBuf = h.writeBuf[1:]
		// Write-allocate the line (dirty) into L1; a PVB line keeps its
		// origin.
		if !h.L1D.Probe(line) {
			present, _, orig := h.PVB.Extract(line)
			if !present && !h.L2.Access(line, false) {
				h.L2.Fill(line, false, OriginNone)
				h.memTransfer(now)
			}
			h.fillL1(line, true, orig)
		} else {
			h.L1D.Access(line, true)
		}
	}
}

// WriteBufLen reports current write-buffer occupancy (tests and stats).
func (h *Hierarchy) WriteBufLen() int { return len(h.writeBuf) }
