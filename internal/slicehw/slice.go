// Package slicehw implements the paper's hardware extensions for
// speculative slices (§4 and §5): the slice table that detects fork points
// at fetch, the PGI table that marks prediction-generating instructions,
// and the prediction correlator that binds slice-generated branch
// predictions to the right dynamic branch instances by killing predictions
// when the main thread's path shows they can no longer be used.
//
// The package holds passive hardware structures; the CPU core drives them
// from its fetch, complete, retire, and squash stages, and records undo
// handles on each in-flight instruction so that every correlator action a
// squashed instruction performed can be rolled back exactly (the paper's
// mis-speculation recovery via Von Neumann numbers, §5.2).
package slicehw

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// PGI describes one prediction-generating instruction in a slice: the
// instruction at SlicePC computes the outcome of the problem branch at
// BranchPC in the main thread. The computed value maps to a direction via
// TakenIfZero (slices arrange their compare so one polarity fits).
type PGI struct {
	SlicePC     uint64
	BranchPC    uint64
	TakenIfZero bool
}

// Slice is one speculative slice: its fork point, code location, live-in
// registers, termination bound, PGIs, and the kill PCs used for prediction
// correlation. Slices are constructed by hand per workload, as in the
// paper (§3.2); the fields mirror the slice-table entry of Figure 6.
type Slice struct {
	Name  string
	Index int

	// ForkPC is the main-thread PC whose fetch forks the slice (the
	// fork-PC CAM of Figure 6a).
	ForkPC uint64
	// SlicePC is the helper thread's starting PC; slice instructions are
	// ordinary instructions in the instruction image.
	SlicePC uint64
	// LiveIns are the registers copied from the main thread at fork.
	// Rarely more than 4 (§3.2).
	LiveIns []isa.Reg
	// MaxLoops bounds back-edge executions; 0 means the slice has no
	// loop. Derived from a profile of the loop's iteration upper bound.
	MaxLoops int
	// LoopBackPC is the slice's back-edge branch, counted against
	// MaxLoops at fetch.
	LoopBackPC uint64

	PGIs []PGI

	// LoopKillPC is the main-thread instruction that kills one
	// iteration's predictions (a loop-iteration kill); SliceKillPC kills
	// everything the oldest live instance generated (a slice kill).
	// Either may be zero when unused.
	LoopKillPC  uint64
	SliceKillPC uint64
	// LoopKillSkipFirst marks kill blocks that are the target of the loop
	// back-edge: their first execution per fork precedes the first
	// problem-branch instance and must not kill (§5.1).
	LoopKillSkipFirst bool
	// SliceKillSkipFirst marks slices hoisted a full outer iteration
	// ahead (they cover iteration i+1 from a fork in iteration i): the
	// slice kill at the end of iteration i must spare them once.
	SliceKillSkipFirst bool

	// CoveredLoadPCs lists the problem loads this slice prefetches
	// (metadata for Tables 3 and 4).
	CoveredLoadPCs []uint64

	// StaticSize and LoopSize describe the slice body for Table 3
	// (instructions total, and inside the loop).
	StaticSize int
	LoopSize   int

	// coveredBranches caches CoveredBranchPCs; NewTable fills it, so the
	// loop kill on the hot fetch path never rebuilds the list.
	coveredBranches []uint64
}

// CoveredBranchPCs returns the distinct problem branches this slice
// predicts, in PGI order. For a slice in a Table the list is computed once
// by NewTable and shared: callers must not modify it.
func (s *Slice) CoveredBranchPCs() []uint64 {
	if s.coveredBranches != nil {
		return s.coveredBranches
	}
	return coveredBranchPCs(s.PGIs)
}

// coveredBranchPCs lists the distinct BranchPCs of pgis in order. Slices
// carry a handful of PGIs, so a linear duplicate scan beats a set.
func coveredBranchPCs(pgis []PGI) []uint64 {
	var out []uint64
	for _, p := range pgis {
		if !slices.Contains(out, p.BranchPC) {
			out = append(out, p.BranchPC)
		}
	}
	return out
}

// KillCount returns how many kill PCs the slice uses (Table 3's "kills").
func (s *Slice) KillCount() int {
	n := 0
	if s.LoopKillPC != 0 {
		n++
	}
	if s.SliceKillPC != 0 {
		n++
	}
	return n
}

// Table is the front-end slice/PGI table (Figure 6). It answers, for a
// fetched PC, whether it forks a slice, kills predictions, or generates a
// prediction — all in O(1).
type Table struct {
	slices      []*Slice
	forkAt      map[uint64][]*Slice
	loopKillAt  map[uint64][]*Slice
	sliceKillAt map[uint64][]*Slice
	pgiAt       map[uint64]PGIRef
}

// PGIRef resolves a slice-code PC to its PGI-table entry.
type PGIRef struct {
	Slice *Slice
	PGI   *PGI
}

// NewTable builds the lookup structures, validating slice metadata.
func NewTable(slices []*Slice) (*Table, error) {
	t := &Table{
		slices:      slices,
		forkAt:      make(map[uint64][]*Slice),
		loopKillAt:  make(map[uint64][]*Slice),
		sliceKillAt: make(map[uint64][]*Slice),
		pgiAt:       make(map[uint64]PGIRef),
	}
	for i, s := range slices {
		if s.ForkPC == 0 || s.SlicePC == 0 {
			return nil, fmt.Errorf("slicehw: slice %q missing fork or slice PC", s.Name)
		}
		s.Index = i
		s.coveredBranches = coveredBranchPCs(s.PGIs)
		t.forkAt[s.ForkPC] = append(t.forkAt[s.ForkPC], s)
		if s.LoopKillPC != 0 {
			t.loopKillAt[s.LoopKillPC] = append(t.loopKillAt[s.LoopKillPC], s)
		}
		if s.SliceKillPC != 0 {
			t.sliceKillAt[s.SliceKillPC] = append(t.sliceKillAt[s.SliceKillPC], s)
		}
		if len(s.PGIs) > 0 && s.SliceKillPC == 0 {
			return nil, fmt.Errorf("slicehw: slice %q has PGIs but no slice kill; its instances could never retire", s.Name)
		}
		for j := range s.PGIs {
			p := &s.PGIs[j]
			if _, dup := t.pgiAt[p.SlicePC]; dup {
				return nil, fmt.Errorf("slicehw: slice %q: duplicate PGI at %#x", s.Name, p.SlicePC)
			}
			t.pgiAt[p.SlicePC] = PGIRef{Slice: s, PGI: p}
		}
	}
	return t, nil
}

// MustTable is NewTable that panics (static configuration).
func MustTable(slices []*Slice) *Table {
	t, err := NewTable(slices)
	if err != nil {
		panic(err)
	}
	return t
}

// Slices returns all slices.
func (t *Table) Slices() []*Slice { return t.slices }

// ForksAt returns the slices forked when the main thread fetches pc.
func (t *Table) ForksAt(pc uint64) []*Slice { return t.forkAt[pc] }

// LoopKillsAt returns slices whose loop-iteration kill fires at pc.
func (t *Table) LoopKillsAt(pc uint64) []*Slice { return t.loopKillAt[pc] }

// SliceKillsAt returns slices whose slice kill fires at pc.
func (t *Table) SliceKillsAt(pc uint64) []*Slice { return t.sliceKillAt[pc] }

// PGIAt returns the PGI-table entry for a slice-code pc, if any.
func (t *Table) PGIAt(pc uint64) (PGIRef, bool) {
	r, ok := t.pgiAt[pc]
	return r, ok
}
