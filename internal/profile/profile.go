// Package profile implements the problem-instruction characterization of
// §2.2: attribute performance degrading events (cache misses and branch
// mispredictions) to static instructions and select the small set that
// accounts for a disproportionate share — instructions with a non-trivial
// PDE count where at least 10% of executions cause a PDE.
//
// The selected PC sets drive the per-static-instruction perfect modes used
// by Figure 1's "prob. inst. perfect" bars and Figure 11's constrained
// limit study.
package profile

import (
	"sort"

	"repro/internal/stats"
)

// minRate is the per-execution PDE rate threshold (the paper's 10%).
const minRate = 0.10

// minPDEs is the non-trivial event count threshold for a measured region
// of regionInsts instructions: 0.01% of the region, and at least 16, which
// mirrors the paper's classification for our scaled-down regions.
func minPDEs(regionInsts uint64) uint64 {
	return max(regionInsts/10000, 16)
}

// Result is one workload's problem-instruction characterization — the
// columns of Table 2.
type Result struct {
	// Memory problem instructions.
	MemSI int
	// MemFrac is the fraction of dynamic memory operations the problem
	// loads account for ("mem" in Table 2).
	MemFrac float64
	// MissCoverage is the fraction of all load misses they cover ("mis").
	MissCoverage float64

	// Control problem instructions.
	BrSI int
	// BrFrac is the fraction of dynamic conditional branches covered.
	BrFrac float64
	// MispredCoverage is the fraction of all mispredictions covered.
	MispredCoverage float64

	// The selected PCs, for the perfect modes.
	LoadPCs   map[uint64]bool
	BranchPCs map[uint64]bool
}

// Characterize classifies the per-PC statistics of one measured run of
// regionInsts instructions.
func Characterize(s *stats.Sim, regionInsts uint64) Result {
	floor := minPDEs(regionInsts)
	r := Result{
		LoadPCs:   make(map[uint64]bool),
		BranchPCs: make(map[uint64]bool),
	}
	var totalLoadExecs, totalMisses uint64
	var totalBrExecs, totalMispredicts uint64
	var probLoadExecs, probMisses uint64
	var probBrExecs, probMispredicts uint64

	for _, st := range s.Static {
		switch {
		case st.IsLoad:
			totalLoadExecs += st.Execs
			totalMisses += st.Misses
			if st.Misses >= floor && st.MissRate() >= minRate {
				r.MemSI++
				r.LoadPCs[st.PC] = true
				probLoadExecs += st.Execs
				probMisses += st.Misses
			}
		case st.IsBranch:
			totalBrExecs += st.Execs
			totalMispredicts += st.Mispredicts
			if st.Mispredicts >= floor && st.MispredictRate() >= minRate {
				r.BrSI++
				r.BranchPCs[st.PC] = true
				probBrExecs += st.Execs
				probMispredicts += st.Mispredicts
			}
		}
	}
	if totalLoadExecs > 0 {
		r.MemFrac = float64(probLoadExecs) / float64(totalLoadExecs)
	}
	if totalMisses > 0 {
		r.MissCoverage = float64(probMisses) / float64(totalMisses)
	}
	if totalBrExecs > 0 {
		r.BrFrac = float64(probBrExecs) / float64(totalBrExecs)
	}
	if totalMispredicts > 0 {
		r.MispredCoverage = float64(probMispredicts) / float64(totalMispredicts)
	}
	return r
}

// ProblemPCs returns the union of the problem load and branch PCs, sorted
// ascending — the deterministic work list automatic slice construction
// starts from.
func (r Result) ProblemPCs() []uint64 {
	out := make([]uint64, 0, len(r.LoadPCs)+len(r.BranchPCs))
	for pc := range r.LoadPCs {
		out = append(out, pc)
	}
	for pc := range r.BranchPCs {
		if !r.LoadPCs[pc] {
			out = append(out, pc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TopOffenders returns the n static instructions with the most PDEs, for
// reports and slice-construction guidance.
func TopOffenders(s *stats.Sim, n int) []*stats.Static {
	var all []*stats.Static
	for _, st := range s.Static {
		if st.Misses+st.Mispredicts > 0 {
			all = append(all, st)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		pi := all[i].Misses + all[i].Mispredicts
		pj := all[j].Misses + all[j].Mispredicts
		if pi != pj {
			return pi > pj
		}
		return all[i].PC < all[j].PC
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}
