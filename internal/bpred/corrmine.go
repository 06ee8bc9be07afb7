package bpred

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/wire"
)

// CorrMine is the sparse correlation-mining baseline (Zouzias et al.,
// PAPERS.md): rather than hashing all recent history like gshare, it
// mines — per static branch — *which* recently retired branch actually
// correlates with the outcome. Each tracked branch keeps one agreement
// counter per history position; a position whose counter saturates far
// from neutral ("this branch always agrees/disagrees with the branch N
// retirements ago") supplies the prediction, otherwise a per-branch bias
// counter does. This is the affine-correlation idea reduced to hardware
// counters: most branches correlate strongly with only a handful of
// prior branches, so a sparse per-position table beats a dense history
// hash on exactly those branches — and fails, like all pattern
// predictors, on data-dependent "problem" branches.
//
// The retired-branch ring and all counters train in Update (correct path
// only); Predict mutates nothing but stats, so wrong-path fetch lookups
// are safe. Predictions read the ring as of fetch, so positions lag by
// the branches in flight — a real cost any non-speculative correlation
// table pays.
type CorrMine struct {
	ring      []corrEvent // last len(ring) retired conditional branches
	head      int         // next slot to overwrite; head-1 is the newest
	positions int
	threshold uint8 // min |counter-neutral| before a position is trusted
	entries   []cmEntry
	mask      uint64

	// Stats splits predictions between mined positions and the bias.
	Stats stats.CorrMineStats
}

type corrEvent struct {
	pc    uint64
	taken bool
}

type cmEntry struct {
	pc    uint64 // full-PC tag; 0 = empty
	bias  uint8  // saturating, neutral 128
	agree []uint8
}

const corrNeutral = 128

// NewCorrMine builds a miner tracking entries branches (power of two)
// over positions history slots, trusting a position once its agreement
// counter is at least threshold away from neutral.
func NewCorrMine(entries, positions int, threshold uint8) *CorrMine {
	return &CorrMine{
		ring:      make([]corrEvent, positions),
		positions: positions,
		threshold: threshold,
		entries:   make([]cmEntry, entries),
		mask:      uint64(entries - 1),
		Stats:     stats.CorrMineStats{Kind: "corrmine"},
	}
}

func (m *CorrMine) idx(pc uint64) uint64 { return (pc >> 2) & m.mask }

// eventAt returns the j-th most recent retired branch (j=0 newest).
func (m *CorrMine) eventAt(j int) corrEvent {
	i := m.head - 1 - j
	for i < 0 {
		i += len(m.ring)
	}
	return m.ring[i]
}

func (m *CorrMine) push(pc uint64, taken bool) {
	m.ring[m.head] = corrEvent{pc: pc, taken: taken}
	m.head++
	if m.head == len(m.ring) {
		m.head = 0
	}
}

func sat8(v uint8, up bool) uint8 {
	if up {
		if v < 255 {
			return v + 1
		}
		return v
	}
	if v > 0 {
		return v - 1
	}
	return v
}

// Predict implements DirPredictor: the strongest mined position above
// threshold supplies the direction (agree => follow that branch's
// outcome, disagree => invert it); otherwise the per-branch bias does.
func (m *CorrMine) Predict(pc, _ uint64) bool {
	m.Stats.Lookups++
	e := &m.entries[m.idx(pc)]
	if e.pc != pc {
		m.Stats.Cold++
		return true // cold default, matching the bimodal weakly-taken init
	}
	best, bestDist := -1, int(m.threshold)-1
	for j, a := range e.agree {
		d := int(a) - corrNeutral
		if d < 0 {
			d = -d
		}
		if d > bestDist {
			best, bestDist = j, d
		}
	}
	if best >= 0 {
		m.Stats.MinedUsed++
		ev := m.eventAt(best)
		return ev.taken == (e.agree[best] >= corrNeutral)
	}
	m.Stats.BiasUsed++
	return e.bias >= corrNeutral
}

// Update implements DirPredictor: trains the bias and every position's
// agreement counter against the retired-branch ring, then pushes this
// branch into the ring.
func (m *CorrMine) Update(pc, _ uint64, taken bool) {
	e := &m.entries[m.idx(pc)]
	if e.pc != pc {
		m.Stats.Allocs++
		e.pc = pc
		e.bias = corrNeutral
		if e.agree == nil {
			e.agree = make([]uint8, m.positions)
		}
		for j := range e.agree {
			e.agree[j] = corrNeutral
		}
	}
	e.bias = sat8(e.bias, taken)
	for j := range e.agree {
		ev := m.eventAt(j)
		if ev.pc == 0 {
			continue // ring not yet filled this deep
		}
		e.agree[j] = sat8(e.agree[j], ev.taken == taken)
	}
	m.push(pc, taken)
}

// Spec implements Predictor.
func (m *CorrMine) Spec() string {
	return fmt.Sprintf("corrmine:%d,%d,%d", len(m.entries), m.positions, m.threshold)
}

// Counters implements Predictor.
func (m *CorrMine) Counters() any { return &m.Stats }

// SaveState implements Predictor.
func (m *CorrMine) SaveState() []byte {
	var w wire.Writer
	w.U64(uint64(len(m.ring)))
	w.U64(uint64(m.head))
	for _, ev := range m.ring {
		w.U64(ev.pc)
		w.Bool(ev.taken)
	}
	w.U64(uint64(len(m.entries)))
	for _, e := range m.entries {
		w.U64(e.pc)
		w.U8(e.bias)
		w.Bool(e.agree != nil)
		for _, a := range e.agree {
			w.U8(a)
		}
	}
	return w.Seal()
}

// LoadState implements Predictor.
func (m *CorrMine) LoadState(blob []byte) error {
	r, err := openBlob("corrmine", blob)
	if err != nil {
		return err
	}
	r.Expect(uint64(len(m.ring)), "ring slots")
	h := r.U64()
	if h >= uint64(len(m.ring)) {
		return fmt.Errorf("corrmine: ring head %d out of range", h)
	}
	m.head = int(h)
	for i := range m.ring {
		m.ring[i] = corrEvent{pc: r.U64(), taken: r.Bool()}
	}
	r.Expect(uint64(len(m.entries)), "entries")
	for i := range m.entries {
		e := &m.entries[i]
		e.pc = r.U64()
		e.bias = r.U8()
		if r.Bool() {
			if e.agree == nil {
				e.agree = make([]uint8, m.positions)
			}
			for j := range e.agree {
				e.agree[j] = r.U8()
			}
		} else {
			e.agree = nil
		}
	}
	return closeBlob("corrmine", r)
}
