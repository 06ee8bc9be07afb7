// Package stats collects the per-static-instruction and whole-run counters
// every experiment in the paper reports: PDE attribution for Table 2 and
// Figure 1, and the slice-execution characterization of Table 4.
package stats

// Static accumulates retired, correct-path events for one static
// instruction (one PC) of the main thread.
type Static struct {
	PC    uint64 `stats:"id"`
	Execs uint64

	// Loads.
	IsLoad bool
	Misses uint64 // accesses slower than an L1 hit

	// Branches.
	IsBranch    bool
	Taken       uint64
	Mispredicts uint64
}

// MissRate returns misses per execution.
func (s *Static) MissRate() float64 {
	if s.Execs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Execs)
}

// MispredictRate returns mispredictions per execution.
func (s *Static) MispredictRate() float64 {
	if s.Execs == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Execs)
}

// Sim is the whole-run counter set.
type Sim struct {
	Cycles uint64

	// Main thread.
	MainFetched    uint64 // includes wrong path
	MainWrongPath  uint64 // fetched then squashed
	MainRetired    uint64
	Loads          uint64 // retired loads
	LoadMisses     uint64 // retired loads slower than an L1 hit
	Branches       uint64 // retired conditional branches
	Mispredicts    uint64
	IndirectJumps  uint64
	IndirectMisses uint64
	RetireStalls   uint64 // cycles retire was blocked by the write buffer
	CycleGuardHits uint64 // times Run's MaxCycles guard truncated a region

	// Helper threads.
	HelperFetched uint64
	HelperRetired uint64 // completed and drained (slices have no arch retire)
	HelperFaults  uint64 // slices terminated by an exception
	HelperMaxIter uint64 // slices terminated by the iteration bound
	HelperStores  uint64 // stores dropped from slice code (should be 0)

	// Slice forking.
	Forks         uint64
	ForksSquashed uint64
	ForksIgnored  uint64
	ForksGated    uint64 // suppressed by the confidence gate (§6.3)

	// Correlator-facing (resolved on the correct path).
	PredsGenerated            uint64 // predictions actually filled by helper PGIs
	PredsUsed                 uint64 // branch instances that used a slice prediction
	PredsCorrect              uint64
	PredsIncorrect            uint64
	PredsLateUsed             uint64 // predictions that arrived after their branch fetched
	EarlyResolutions          uint64 // late-prediction fetch redirects
	CoveredMispredictsAvoided uint64 // covered-branch instances the slice got right that the baseline predictor got wrong

	// Prefetch attribution.
	SlicePrefetches uint64 // helper loads that initiated a fill
	MissesCovered   uint64 // main-thread accesses served by helper-fetched lines

	Static map[uint64]*Static
}

// New returns an empty counter set.
func New() *Sim {
	return &Sim{Static: make(map[uint64]*Static)}
}

// ByPC returns (allocating) the static record for pc.
func (s *Sim) ByPC(pc uint64) *Static {
	st := s.Static[pc]
	if st == nil {
		st = &Static{PC: pc}
		s.Static[pc] = st
	}
	return st
}

// IPC returns main-thread retired instructions per cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.MainRetired) / float64(s.Cycles)
}

// PredsConsumed returns how many branch instances used a slice
// prediction, on time or late.
func (s *Sim) PredsConsumed() uint64 { return s.PredsUsed + s.PredsLateUsed }

// OverrideAccuracyPct returns the percentage of resolved slice
// predictions that were correct, or 0 when none resolved.
func (s *Sim) OverrideAccuracyPct() float64 {
	n := s.PredsCorrect + s.PredsIncorrect
	if n == 0 {
		return 0
	}
	return float64(s.PredsCorrect) / float64(n) * 100
}

// MispredictRate returns mispredictions per retired conditional branch.
func (s *Sim) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// LoadMissRate returns misses per retired load.
func (s *Sim) LoadMissRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadMisses) / float64(s.Loads)
}
