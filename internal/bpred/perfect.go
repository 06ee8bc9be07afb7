package bpred

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// PerfectDir is the perfect-slice upper bound: branches in its PC set
// always predict the actual outcome (the execute-at-fetch core primes it
// through OutcomePrimed before Predict), modelling a slice that forked
// early enough to resolve every instance in time. Uncovered branches use
// an internal default YAGS, so the bound isolates the covered subset —
// the same semantics as the Perfect config, but expressed as a registry
// predictor the whole seam (fingerprint, checkpoint, stats) handles
// uniformly. An empty PC set means every branch is perfect.
//
// Covered branches do not train the fallback (a slice would have
// overridden the pattern predictor anyway).
type PerfectDir struct {
	pcs     map[uint64]bool // empty = all branches covered
	outcome bool            // primed actual outcome for the branch being fetched
	fb      *YAGS

	// Stats splits lookups between covered and fallback branches.
	Stats stats.PerfectStats
}

// NewPerfectDir builds the upper bound covering the given PCs (nil or
// empty = all branches).
func NewPerfectDir(pcs map[uint64]bool) *PerfectDir {
	cp := make(map[uint64]bool, len(pcs))
	for pc, on := range pcs {
		if on {
			cp[pc] = true
		}
	}
	return &PerfectDir{pcs: cp, fb: DefaultYAGS(), Stats: stats.PerfectStats{Kind: "perfect"}}
}

func (p *PerfectDir) covers(pc uint64) bool { return len(p.pcs) == 0 || p.pcs[pc] }

// PrimeOutcome implements OutcomePrimed.
func (p *PerfectDir) PrimeOutcome(taken bool) { p.outcome = taken }

// Predict implements DirPredictor.
func (p *PerfectDir) Predict(pc, hist uint64) bool {
	p.Stats.Lookups++
	if p.covers(pc) {
		p.Stats.Covered++
		return p.outcome
	}
	p.Stats.FallbackUsed++
	return p.fb.Predict(pc, hist)
}

// Update implements DirPredictor: only uncovered branches train.
func (p *PerfectDir) Update(pc, hist uint64, taken bool) {
	if !p.covers(pc) {
		p.fb.Update(pc, hist, taken)
	}
}

// Spec implements Predictor: the covered PCs, sorted, in hex.
func (p *PerfectDir) Spec() string {
	if len(p.pcs) == 0 {
		return "perfect"
	}
	pcs := make([]uint64, 0, len(p.pcs))
	for pc := range p.pcs {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var b strings.Builder
	b.WriteString("perfect:")
	for i, pc := range pcs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%#x", pc)
	}
	return b.String()
}

// PerfectSpec builds the registry spec covering a PC set — the harness
// uses it to turn a profiled problem-branch set into a predictor config.
func PerfectSpec(pcs map[uint64]bool) string { return NewPerfectDir(pcs).Spec() }

// Counters implements Predictor.
func (p *PerfectDir) Counters() any { return &p.Stats }

// SaveState implements Predictor: the warm state is the fallback's
// tables (the PC set is configuration, carried by the spec).
func (p *PerfectDir) SaveState() []byte { return p.fb.SaveState() }

// LoadState implements Predictor.
func (p *PerfectDir) LoadState(blob []byte) error { return p.fb.LoadState(blob) }
