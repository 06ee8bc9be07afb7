package stats

import "fmt"

// This file defines the counter structs for every instrumented component
// of the simulated machine. They live here — not in the packages whose
// hardware bumps them — so the telemetry layer (Snapshot, Tracer) can
// name all of them without import cycles: stats is a leaf package that
// cache, bpred, slicehw, and cpu all import. Each component bumps its
// struct in place, and cpu.Core.Snapshot copies every live struct into
// its Snapshot section by name, so the compiler checks each section's
// type. The owning packages keep type aliases (cache.Stats,
// cache.HierStats, slicehw.CorrStats) so existing call sites read
// unchanged.

// CacheStats counts events for one cache or buffer (L1D, L1I, L2, or the
// prefetch/victim buffer; for the PVB, Hits/Misses count Extract probes).
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// HierStats aggregates hierarchy-wide counters.
type HierStats struct {
	DemandLoads      uint64
	DemandLoadMisses uint64 // L1 misses seen by demand loads (incl. PVB hits)
	DemandStalls     uint64 // demand accesses with latency above L1 hit
	HelperAccesses   uint64
	HelperMisses     uint64 // helper accesses that initiated a fill
	PrefetchIssued   uint64 // hardware prefetches actually launched
	PrefetchUseful   uint64
	HelperCovered    uint64
	WriteBufFull     uint64
	Writebacks       uint64 // dirty lines pushed toward memory
	ICMisses         uint64
}

// CorrStats counts correlator events for Table 4.
type CorrStats struct {
	Generated     uint64 // predictions allocated (PGI fetches)
	Filled        uint64
	Overrides     uint64 // branch fetches that used a Full prediction
	LateMatches   uint64 // branch fetches that matched an Empty entry
	LateMismatch  uint64 // late fills disagreeing with the used direction
	LoopKills     uint64
	SliceKills    uint64
	KillNoTarget  uint64 // kill fetched with nothing to kill
	QueueFull     uint64 // allocation dropped
	UndoneKills   uint64
	UndoneUses    uint64
	UndoneAllocs  uint64
	InstanceDrops uint64 // instances removed by fork squash
}

// YAGSStats counts direction-predictor events: which structure supplied
// each prediction and how the tagged direction caches behave.
type YAGSStats struct {
	Kind           string `stats:"id"` // registry name of the predictor
	Lookups        uint64 // direction predictions requested
	ChoiceUsed     uint64 // the bias (choice) table supplied the prediction
	CacheHits      uint64 // a tagged direction-cache entry supplied it
	CacheAliased   uint64 // consulted slot held a different branch's entry
	Allocs         uint64 // exception entries allocated at update
	AllocEvictions uint64 // allocations that displaced a live entry
}

// IndirectStats counts cascading indirect-predictor events.
type IndirectStats struct {
	Kind          string `stats:"id"` // registry name of the predictor
	Lookups       uint64 // target predictions requested
	Stage2Hits    uint64 // tagged history-indexed entry supplied the target
	Stage2Aliased uint64 // stage-2 slot held a different branch's entry
	Stage1Used    uint64 // fell back to the per-branch last target
	NoTarget      uint64 // cold lookup: no prediction available
	Allocs        uint64 // stage-2 allocations (trained stage 1 missed)
}

// RASStats counts return-address-stack traffic. Pushes and pops are
// speculative (they happen at fetch and are repaired by checkpoints), so
// the counters tally fetch-path events, not retired ones.
type RASStats struct {
	Pushes     uint64
	Pops       uint64
	Overflows  uint64 // pushes that wrapped over a live entry
	Underflows uint64 // pops from a logically empty stack
}

// DirStats counts events for the single-table direction baselines
// (bimodal, gshare).
type DirStats struct {
	Kind         string `stats:"id"` // registry name of the predictor
	Lookups      uint64 // direction predictions requested
	UpdateMisses uint64 // updates where the table disagreed with the outcome
}

// ValuePredStats counts value-predictor events: how often the value path
// was confident enough to supply the direction.
type ValuePredStats struct {
	Kind         string `stats:"id"` // registry name of the predictor
	Lookups      uint64 // direction predictions requested
	ValueUsed    uint64 // a confident predicted value supplied the direction
	FallbackUsed uint64 // the bimodal outcome table supplied it
	Allocs       uint64 // tracked-branch entries allocated (evictions included)
}

// CorrMineStats counts correlation-mining predictor events: how often a
// mined history position supplied the direction.
type CorrMineStats struct {
	Kind      string `stats:"id"` // registry name of the predictor
	Lookups   uint64 // direction predictions requested
	MinedUsed uint64 // a trusted correlated position supplied the direction
	BiasUsed  uint64 // the per-branch bias supplied it
	Cold      uint64 // untracked branch: static default
	Allocs    uint64 // entries allocated (evictions included)
}

// PerfectStats counts perfect-upper-bound predictor events.
type PerfectStats struct {
	Kind         string `stats:"id"` // registry name of the predictor
	Lookups      uint64 // direction predictions requested
	Covered      uint64 // covered branch: actual outcome supplied
	FallbackUsed uint64 // uncovered branch: internal YAGS supplied it
}

// BpredStats groups the front-end predictors' counters. Exactly one
// direction-predictor section is live per run — the one whose type the
// selected predictor's Counters method returns; Set fills it.
type BpredStats struct {
	YAGS     YAGSStats // default YAGS direction predictor
	Dir      DirStats  // bimodal/gshare baselines
	Value    ValuePredStats
	CorrMine CorrMineStats
	Perfect  PerfectStats
	Indirect IndirectStats
	RAS      RASStats // the main thread's stack
}

// Set copies a predictor's live counter struct — the pointer its
// Counters method returns — into the section of its type. It panics on a
// type with no section, so a new predictor's counters cannot go
// unexported silently.
func (b *BpredStats) Set(counters any) {
	switch p := counters.(type) {
	case *YAGSStats:
		b.YAGS = *p
	case *DirStats:
		b.Dir = *p
	case *ValuePredStats:
		b.Value = *p
	case *CorrMineStats:
		b.CorrMine = *p
	case *PerfectStats:
		b.Perfect = *p
	case *IndirectStats:
		b.Indirect = *p
	default:
		panic(fmt.Sprintf("stats: BpredStats has no section for %T", counters))
	}
}
