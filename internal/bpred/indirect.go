package bpred

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/wire"
)

// Cascaded implements the cascading indirect branch target predictor of
// Driesen & Hölzle (MICRO-31). A small first-stage table indexed by PC
// holds per-branch last targets; a larger tagged second stage indexed by
// PC⊕path-history holds history-dependent targets. The cascade filters:
// second-stage entries are allocated only when the first stage mispredicts,
// so monomorphic branches never pollute the history-indexed table.
type Cascaded struct {
	stage1   []uint64 // last target, PC-indexed, untagged
	stage2   []casEntry
	m1, m2   uint64
	tagBits  uint
	pathBits uint

	// Stats counts which stage supplied each target prediction.
	Stats stats.IndirectStats
}

type casEntry struct {
	tag    uint16
	target uint64
	valid  bool
}

// NewCascaded builds the predictor. The paper's 32 Kbit budget corresponds
// roughly to NewCascaded(256, 512, 8, 10) with 64-bit targets.
func NewCascaded(stage1Entries, stage2Entries int, tagBits, pathBits uint) *Cascaded {
	return &Cascaded{
		stage1:   make([]uint64, stage1Entries),
		stage2:   make([]casEntry, stage2Entries),
		m1:       uint64(stage1Entries - 1),
		m2:       uint64(stage2Entries - 1),
		tagBits:  tagBits,
		pathBits: pathBits,
		Stats:    stats.IndirectStats{Kind: "cascaded"},
	}
}

func (c *Cascaded) i1(pc uint64) uint64 { return (pc >> 2) & c.m1 }

func (c *Cascaded) i2(pc, path uint64) uint64 {
	p := path & (1<<c.pathBits - 1)
	return ((pc >> 2) ^ p) & c.m2
}

func (c *Cascaded) tag(pc uint64) uint16 {
	return uint16((pc >> 2) & (1<<c.tagBits - 1))
}

// Predict returns the predicted target of the indirect jump at pc under
// path history path (0 if no prediction).
func (c *Cascaded) Predict(pc, path uint64) uint64 {
	c.Stats.Lookups++
	if e := &c.stage2[c.i2(pc, path)]; e.valid {
		if e.tag == c.tag(pc) {
			c.Stats.Stage2Hits++
			return e.target
		}
		c.Stats.Stage2Aliased++
	}
	t := c.stage1[c.i1(pc)]
	if t == 0 {
		c.Stats.NoTarget++
	} else {
		c.Stats.Stage1Used++
	}
	return t
}

// Update trains the predictor with the resolved target.
func (c *Cascaded) Update(pc, path, target uint64) {
	i1 := c.i1(pc)
	stage1Correct := c.stage1[i1] == target
	i2 := c.i2(pc, path)
	e := &c.stage2[i2]
	if e.valid && e.tag == c.tag(pc) {
		e.target = target
	} else if !stage1Correct && c.stage1[i1] != 0 {
		// Cascade filter: allocate only when a trained first stage failed
		// (a cold stage-1 miss is not evidence of polymorphism).
		c.Stats.Allocs++
		*e = casEntry{tag: c.tag(pc), target: target, valid: true}
	}
	c.stage1[i1] = target
}

// Spec implements Predictor.
func (c *Cascaded) Spec() string {
	return fmt.Sprintf("cascaded:%d,%d,%d,%d", len(c.stage1), len(c.stage2), c.tagBits, c.pathBits)
}

// Counters implements Predictor.
func (c *Cascaded) Counters() any { return &c.Stats }

// SaveState implements Predictor.
func (c *Cascaded) SaveState() []byte {
	var w wire.Writer
	w.U64(uint64(len(c.stage1)))
	for _, t := range c.stage1 {
		w.U64(t)
	}
	w.U64(uint64(len(c.stage2)))
	for _, e := range c.stage2 {
		w.U16(e.tag)
		w.U64(e.target)
		w.Bool(e.valid)
	}
	return w.Seal()
}

// LoadState implements Predictor.
func (c *Cascaded) LoadState(blob []byte) error {
	r, err := openBlob("cascaded", blob)
	if err != nil {
		return err
	}
	r.Expect(uint64(len(c.stage1)), "stage-1 entries")
	for i := range c.stage1 {
		c.stage1[i] = r.U64()
	}
	r.Expect(uint64(len(c.stage2)), "stage-2 entries")
	for i := range c.stage2 {
		c.stage2[i] = casEntry{tag: r.U16(), target: r.U64(), valid: r.Bool()}
	}
	return closeBlob("cascaded", r)
}

// PushPath mixes a resolved indirect target into a path history register.
// The CPU keeps the register per thread and checkpoints it across
// speculation.
func PushPath(path, target uint64) uint64 {
	return path<<3 ^ (target >> 2)
}
