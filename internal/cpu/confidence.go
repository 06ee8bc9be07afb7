package cpu

import "repro/internal/slicehw"

// confidence implements a JRS-style resetting-counter confidence estimator
// (Jacobsen, Rotenberg & Smith, MICRO-29 — the paper's reference [8]) used
// to gate slice forks (§6.3): a fork is profitable only when one of the
// problem instructions its slice covers is *unlikely* to behave well. Each
// static PC has a small saturating counter that increments on well-behaved
// executions (correct prediction, cache hit) and resets on a PDE; a PC is
// "confident" once its counter reaches the threshold.
type confidence struct {
	table     []uint8
	mask      uint64
	threshold uint8
	max       uint8
}

func newConfidence(entries int, threshold uint8) *confidence {
	return &confidence{
		table:     make([]uint8, entries),
		mask:      uint64(entries - 1),
		threshold: threshold,
		max:       15,
	}
}

func (c *confidence) idx(pc uint64) uint64 { return (pc >> 2) & c.mask }

// observe records one retired execution of pc: pde marks a misprediction
// or cache miss.
func (c *confidence) observe(pc uint64, pde bool) {
	i := c.idx(pc)
	if pde {
		c.table[i] = 0
	} else if c.table[i] < c.max {
		c.table[i]++
	}
}

// confident reports whether pc has been behaving well.
func (c *confidence) confident(pc uint64) bool {
	return c.table[c.idx(pc)] >= c.threshold
}

// sliceWorthForking reports whether any instruction covered by s is
// currently low-confidence — i.e., whether pre-executing it can pay. Each
// program gates against its own confidence table.
func (p *progState) sliceWorthForking(s *slicehw.Slice) bool {
	branches := s.CoveredBranchPCs()
	for _, pc := range branches {
		if !p.conf.confident(pc) {
			return true
		}
	}
	for _, pc := range s.CoveredLoadPCs {
		if !p.conf.confident(pc) {
			return true
		}
	}
	// A slice covering nothing trackable always forks.
	return len(branches)+len(s.CoveredLoadPCs) == 0
}
