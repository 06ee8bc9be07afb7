package slicehw

import "fmt"

// CheckInvariants validates the correlator's structural invariants — the
// properties every mutation (allocate, fill, lookup, kill, and their
// squash undos) must preserve. It is called from the oracle's per-N-cycle
// sweep, never from the cycle loop, so clarity beats speed here.
//
// Checked:
//   - queue shape: every queue holds at most maxPerBranch entries, each
//     keyed by the queue's branch PC and not removed;
//   - binding liveness: a Consumer handle implies the entry is Used (a
//     handle on an unused entry is a leaked binding that would resurrect
//     a pooled instruction);
//   - instance liveness: every queued entry belongs to an instance still
//     tracked in liveBySlice (detaching must purge the queues);
//   - live-list consistency: liveBySlice holds only instances of the
//     keyed slice, and every entry of a live instance points back at it;
//   - pool hygiene: every object on a free list is scrubbed, and no queue
//     or live list reaches a pooled prediction or instance.
func (c *Correlator) CheckInvariants() error {
	freePred := make(map[*Pred]bool, len(c.freePreds))
	for i, p := range c.freePreds {
		if p == nil || *p != (Pred{}) {
			return fmt.Errorf("slicehw: free prediction %d is not scrubbed", i)
		}
		if freePred[p] {
			return fmt.Errorf("slicehw: prediction on the free list twice")
		}
		freePred[p] = true
	}
	freeInst := make(map[*Instance]bool, len(c.freeInsts))
	for i, inst := range c.freeInsts {
		if inst == nil || inst.ID != 0 || inst.Slice != nil || inst.finished || len(inst.entries) != 0 {
			return fmt.Errorf("slicehw: free instance %d is not scrubbed", i)
		}
		if freeInst[inst] {
			return fmt.Errorf("slicehw: instance on the free list twice")
		}
		freeInst[inst] = true
	}
	for i, rec := range c.freeRecs {
		if rec == nil || len(rec.Preds) != 0 || rec.skipInst != (InstRef{}) || len(rec.skipSliceInsts) != 0 ||
			len(rec.finishedInsts) != 0 || rec.slice != nil {
			return fmt.Errorf("slicehw: free kill record %d is not scrubbed", i)
		}
	}
	for pc, q := range c.queues {
		if q.branchPC != pc {
			return fmt.Errorf("slicehw: queue keyed %#x claims branch %#x", pc, q.branchPC)
		}
		if len(q.entries) > c.maxPerBranch {
			return fmt.Errorf("slicehw: queue %#x holds %d entries, max %d", pc, len(q.entries), c.maxPerBranch)
		}
		for i, e := range q.entries {
			if e == nil {
				return fmt.Errorf("slicehw: queue %#x entry %d is nil", pc, i)
			}
			if e.removed {
				return fmt.Errorf("slicehw: queue %#x entry %d is removed but still queued", pc, i)
			}
			if e.BranchPC != pc {
				return fmt.Errorf("slicehw: queue %#x entry %d keyed for branch %#x", pc, i, e.BranchPC)
			}
			if e.Consumer != nil && !e.Used {
				return fmt.Errorf("slicehw: queue %#x entry %d has a consumer bound but is not Used", pc, i)
			}
			if freePred[e] {
				return fmt.Errorf("slicehw: queue %#x entry %d is on the free list", pc, i)
			}
			if e.inst == nil {
				return fmt.Errorf("slicehw: queue %#x entry %d has no instance", pc, i)
			}
			tracked := false
			for _, li := range c.liveBySlice[e.inst.Slice] {
				if li == e.inst {
					tracked = true
					break
				}
			}
			if !tracked {
				return fmt.Errorf("slicehw: queue %#x entry %d belongs to untracked instance %d", pc, i, e.inst.ID)
			}
		}
	}
	for s, live := range c.liveBySlice {
		for _, inst := range live {
			if freeInst[inst] {
				return fmt.Errorf("slicehw: live instance %d of slice %d is pooled", inst.ID, s.Index)
			}
			if inst.Slice != s {
				return fmt.Errorf("slicehw: instance %d listed under slice %d but belongs to slice %d",
					inst.ID, s.Index, inst.Slice.Index)
			}
			for j, p := range inst.entries {
				if freePred[p] {
					return fmt.Errorf("slicehw: instance %d entry %d is on the free list", inst.ID, j)
				}
				if p.inst != inst {
					return fmt.Errorf("slicehw: instance %d entry %d points at instance %d", inst.ID, j, p.inst.ID)
				}
			}
		}
	}
	return nil
}

// ForEachLivePred calls f for every non-removed queued prediction entry.
// The CPU-side invariant checker uses it to validate that each bound
// Consumer handle refers to a live in-flight instruction.
func (c *Correlator) ForEachLivePred(f func(*Pred)) {
	for _, q := range c.queues {
		for _, e := range q.entries {
			if !e.removed {
				f(e)
			}
		}
	}
}
