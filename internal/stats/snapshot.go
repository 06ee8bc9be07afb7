package stats

// Snapshot aggregates every counter the simulated machine exposes — the
// whole-run Sim counters, the memory hierarchy, each cache, the prefetch
// buffer, the baseline predictors, and the slice correlator — into one
// value with uniform Reset/Add semantics. It is the unit of
// machine-readable export: cmd/slicesim -json encodes one Snapshot, and
// harness rows derive from it rather than poking component structs.
type Snapshot struct {
	Sim   Sim
	Hier  HierStats
	L1D   CacheStats
	L1I   CacheStats
	L2    CacheStats
	PVB   CacheStats
	Bpred BpredStats
	Corr  CorrStats
	// Progs holds per-program whole-run counters for multi-programmed
	// cores, slot-aligned with the program specs. Nil on single-program
	// cores, so their serialized form is unchanged. Sim is always program
	// 0's view (c.S aliases progs[0].S); consumers wanting cross-program
	// aggregates sum over Progs themselves.
	Progs []Sim `json:",omitempty"`
}

// Reset zeroes every counter in the snapshot.
func (s *Snapshot) Reset() { Zero(s) }

// Clone returns an independent copy of the whole-run counters: the
// per-PC records are copied, not shared.
func (s *Sim) Clone() *Sim {
	cp := *s
	cp.Static = make(map[uint64]*Static, len(s.Static))
	for pc, st := range s.Static {
		v := *st
		cp.Static[pc] = &v
	}
	return &cp
}
