package slicehw

// Checkpointable correlator state. The correlator is a graph of pointers
// (queues → preds → instances → slices), so the checkpoint flattens it:
// predictions become a flat list, and instances, per-branch queues, and the
// per-slice live lists reference predictions and instances by index. Slices
// themselves are static configuration and are referenced by Slice.Index,
// resolved against the workload's slice table at restore.
//
// State may only be taken at a quiesced point: no in-flight CPU
// instructions may hold correlator handles. Concretely, every Pred.Consumer
// must be nil (consuming branches retired or squashed) — a non-nil consumer
// is a *DynInst of a drained pipeline and cannot be serialized. Pending
// KillRecords need no representation: kills commit at retire or are undone
// at squash, both of which have happened by the time the pipeline is
// drained.
//
// Entries marked removed are physically gone from their queues and
// behaviorally inert, so the checkpoint omits them (preserving relative
// order of the survivors). Empty queues are likewise omitted: a nil queue
// and an empty queue answer every correlator operation identically.

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// PredSnap is one serialized prediction entry. Inst indexes CorrState.Insts.
type PredSnap struct {
	BranchPC uint64
	Filled   bool
	Dir      bool
	Used     bool
	UsedDir  bool
	Killed   bool
	Inst     int
}

// InstSnap is one serialized slice activation. Slice is the Slice.Index;
// Entries index CorrState.Preds in allocation order.
type InstSnap struct {
	ID            uint64
	Slice         int
	SkipLoopKill  int
	SkipSliceKill int
	Finished      bool
	Entries       []int
}

// QueueSnap is one per-branch queue; Entries index CorrState.Preds in queue
// order.
type QueueSnap struct {
	BranchPC uint64
	Entries  []int
}

// LiveSnap is the ordered live-instance list for one slice; Insts index
// CorrState.Insts, oldest fork first (the order oldestLive depends on).
type LiveSnap struct {
	Slice int
	Insts []int
}

// CorrState is the flattened correlator.
type CorrState struct {
	NextID uint64
	Preds  []PredSnap
	Insts  []InstSnap
	Queues []QueueSnap
	Live   []LiveSnap
}

// State flattens the correlator deterministically (live lists sorted by
// slice index, queues by branch PC — map iteration order must not leak
// into the serialized bytes). It fails if any prediction still names a
// consumer — the caller has not drained the pipeline.
func (c *Correlator) State() (*CorrState, error) {
	st := &CorrState{NextID: c.nextID}

	sortedSlices := make([]*Slice, 0, len(c.liveBySlice))
	for s := range c.liveBySlice {
		sortedSlices = append(sortedSlices, s)
	}
	sort.Slice(sortedSlices, func(i, j int) bool { return sortedSlices[i].Index < sortedSlices[j].Index })

	// Index live instances. Every surviving prediction's instance is live:
	// RemoveInstance removes its entries, and CommitKill removes an
	// instance's entries before dropping it from the live list.
	instIdx := make(map[*Instance]int)
	for _, s := range sortedSlices {
		for _, inst := range c.liveBySlice[s] {
			if _, dup := instIdx[inst]; !dup {
				instIdx[inst] = len(st.Insts)
				st.Insts = append(st.Insts, InstSnap{
					ID:            inst.ID,
					Slice:         inst.Slice.Index,
					SkipLoopKill:  inst.skipLoopKill,
					SkipSliceKill: inst.skipSliceKill,
					Finished:      inst.finished,
				})
			}
		}
	}

	sortedQueues := make([]*queue, 0, len(c.queues))
	for _, q := range c.queues {
		if len(q.entries) > 0 {
			sortedQueues = append(sortedQueues, q)
		}
	}
	sort.Slice(sortedQueues, func(i, j int) bool { return sortedQueues[i].branchPC < sortedQueues[j].branchPC })

	// Flatten predictions queue by queue, in queue order.
	predIdx := make(map[*Pred]int)
	for _, q := range sortedQueues {
		qs := QueueSnap{BranchPC: q.branchPC}
		for _, p := range q.entries {
			if p.Consumer != nil {
				return nil, fmt.Errorf("slicehw: prediction for %#x still has a consumer; correlator not quiesced", p.BranchPC)
			}
			ii, ok := instIdx[p.inst]
			if !ok {
				return nil, fmt.Errorf("slicehw: prediction for %#x belongs to a non-live instance", p.BranchPC)
			}
			predIdx[p] = len(st.Preds)
			st.Preds = append(st.Preds, PredSnap{
				BranchPC: p.BranchPC,
				Filled:   p.Filled,
				Dir:      p.Dir,
				Used:     p.Used,
				UsedDir:  p.UsedDir,
				Killed:   p.Killed,
				Inst:     ii,
			})
			qs.Entries = append(qs.Entries, predIdx[p])
		}
		st.Queues = append(st.Queues, qs)
	}

	// Wire instance entry lists (allocation order, removed entries omitted).
	for _, s := range sortedSlices {
		for _, inst := range c.liveBySlice[s] {
			ii := instIdx[inst]
			if len(st.Insts[ii].Entries) > 0 {
				continue // shared instance already wired
			}
			for _, p := range inst.entries {
				if p.removed {
					continue
				}
				pi, ok := predIdx[p]
				if !ok {
					return nil, fmt.Errorf("slicehw: instance %d holds an entry missing from its queue", inst.ID)
				}
				st.Insts[ii].Entries = append(st.Insts[ii].Entries, pi)
			}
		}
	}

	// Live lists in oldest-first order, keyed by slice index.
	for _, s := range sortedSlices {
		live := c.liveBySlice[s]
		if len(live) == 0 {
			continue
		}
		ls := LiveSnap{Slice: s.Index}
		for _, inst := range live {
			ls.Insts = append(ls.Insts, instIdx[inst])
		}
		st.Live = append(st.Live, ls)
	}
	return st, nil
}

// SetState rebuilds the correlator from a flattened checkpoint, resolving
// slice indices against table. The correlator must be freshly built (same
// maxPerBranch as at capture; the harness guarantees this via the warm
// config fingerprint).
func (c *Correlator) SetState(st *CorrState, table *Table) error {
	if st == nil {
		return nil
	}
	slices := table.Slices()

	insts := make([]*Instance, len(st.Insts))
	for i, is := range st.Insts {
		if is.Slice < 0 || is.Slice >= len(slices) {
			return fmt.Errorf("slicehw: checkpoint references slice %d of %d", is.Slice, len(slices))
		}
		insts[i] = &Instance{
			ID:            is.ID,
			Slice:         slices[is.Slice],
			skipLoopKill:  is.SkipLoopKill,
			skipSliceKill: is.SkipSliceKill,
			finished:      is.Finished,
		}
	}

	preds := make([]*Pred, len(st.Preds))
	for i, ps := range st.Preds {
		if ps.Inst < 0 || ps.Inst >= len(insts) {
			return fmt.Errorf("slicehw: checkpoint prediction references instance %d of %d", ps.Inst, len(insts))
		}
		preds[i] = &Pred{
			BranchPC: ps.BranchPC,
			Filled:   ps.Filled,
			Dir:      ps.Dir,
			Used:     ps.Used,
			UsedDir:  ps.UsedDir,
			Killed:   ps.Killed,
			inst:     insts[ps.Inst],
		}
	}

	c.nextID = st.NextID
	c.queues = make(map[uint64]*queue, len(st.Queues))
	for _, qs := range st.Queues {
		q := &queue{branchPC: qs.BranchPC}
		for _, pi := range qs.Entries {
			if pi < 0 || pi >= len(preds) {
				return fmt.Errorf("slicehw: checkpoint queue references prediction %d of %d", pi, len(preds))
			}
			q.entries = append(q.entries, preds[pi])
		}
		c.queues[qs.BranchPC] = q
	}
	for ii, is := range st.Insts {
		for _, pi := range is.Entries {
			if pi < 0 || pi >= len(preds) {
				return fmt.Errorf("slicehw: checkpoint instance references prediction %d of %d", pi, len(preds))
			}
			insts[ii].entries = append(insts[ii].entries, preds[pi])
		}
	}
	c.liveBySlice = make(map[*Slice][]*Instance, len(st.Live))
	for _, ls := range st.Live {
		if ls.Slice < 0 || ls.Slice >= len(slices) {
			return fmt.Errorf("slicehw: checkpoint live list references slice %d of %d", ls.Slice, len(slices))
		}
		var live []*Instance
		for _, ii := range ls.Insts {
			if ii < 0 || ii >= len(insts) {
				return fmt.Errorf("slicehw: checkpoint live list references instance %d of %d", ii, len(insts))
			}
			live = append(live, insts[ii])
		}
		c.liveBySlice[slices[ls.Slice]] = live
	}
	return nil
}

// Encode writes the flattened correlator in its own order: the ID
// cursor, then predictions, instances, queues and live lists, each behind
// a count.
func (st *CorrState) Encode(w *wire.Writer) {
	w.U64(st.NextID)
	w.U64(uint64(len(st.Preds)))
	for _, p := range st.Preds {
		w.U64(p.BranchPC)
		w.Bool(p.Filled)
		w.Bool(p.Dir)
		w.Bool(p.Used)
		w.Bool(p.UsedDir)
		w.Bool(p.Killed)
		w.U64(uint64(p.Inst))
	}
	w.U64(uint64(len(st.Insts)))
	for _, in := range st.Insts {
		w.U64(in.ID)
		w.U64(uint64(in.Slice))
		w.U64(uint64(in.SkipLoopKill))
		w.U64(uint64(in.SkipSliceKill))
		w.Bool(in.Finished)
		encodeInts(w, in.Entries)
	}
	w.U64(uint64(len(st.Queues)))
	for _, q := range st.Queues {
		w.U64(q.BranchPC)
		encodeInts(w, q.Entries)
	}
	w.U64(uint64(len(st.Live)))
	for _, l := range st.Live {
		w.U64(uint64(l.Slice))
		encodeInts(w, l.Insts)
	}
}

// DecodeCorrState reads what Encode wrote; errors latch in r. Indices
// are range-checked against the slice table by SetState, not here.
func DecodeCorrState(r *wire.Reader) *CorrState {
	st := &CorrState{NextID: r.U64()}
	for i, n := 0, r.Count(21); i < n && r.Err() == nil; i++ {
		st.Preds = append(st.Preds, PredSnap{
			BranchPC: r.U64(), Filled: r.Bool(), Dir: r.Bool(),
			Used: r.Bool(), UsedDir: r.Bool(), Killed: r.Bool(),
			Inst: int(r.U64()),
		})
	}
	for i, n := 0, r.Count(41); i < n && r.Err() == nil; i++ {
		in := InstSnap{
			ID: r.U64(), Slice: int(r.U64()),
			SkipLoopKill: int(r.U64()), SkipSliceKill: int(r.U64()),
			Finished: r.Bool(),
		}
		in.Entries = decodeInts(r)
		st.Insts = append(st.Insts, in)
	}
	for i, n := 0, r.Count(16); i < n && r.Err() == nil; i++ {
		q := QueueSnap{BranchPC: r.U64()}
		q.Entries = decodeInts(r)
		st.Queues = append(st.Queues, q)
	}
	for i, n := 0, r.Count(16); i < n && r.Err() == nil; i++ {
		l := LiveSnap{Slice: int(r.U64())}
		l.Insts = decodeInts(r)
		st.Live = append(st.Live, l)
	}
	return st
}

func encodeInts(w *wire.Writer, xs []int) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		w.U64(uint64(x))
	}
}

func decodeInts(r *wire.Reader) []int {
	var xs []int
	for i, n := 0, r.Count(8); i < n && r.Err() == nil; i++ {
		xs = append(xs, int(r.U64()))
	}
	return xs
}
