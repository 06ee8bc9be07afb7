package slicehw

// Warm-checkpoint state of the correlator. The correlator is a graph of
// pointers (queues → preds → instances → slices), so Save writes it flat:
// predictions as one list, and instances, per-branch queues and the
// per-slice live lists referencing predictions and instances by index.
// Slices themselves are static configuration and are written as their
// Slice.Index, resolved against the workload's slice table by Load. Load
// rebuilds the graph straight from the bytes into a fresh correlator; the
// bytes are the checkpoint's only form.
//
// Save may only run at a quiesced point: no in-flight CPU instructions
// may hold correlator handles. Concretely, every Pred.Consumer must be nil
// (consuming branches retired or squashed) — a non-nil consumer is a
// *DynInst of a drained pipeline and cannot be serialized. Pending
// KillRecords need no representation: kills commit at retire or are undone
// at squash, both of which have happened by the time the pipeline is
// drained.
//
// Entries marked removed are physically gone from their queues and
// behaviorally inert, so Save omits them (preserving relative order of
// the survivors). Empty queues and empty live lists are likewise omitted:
// a missing one and an empty one answer every correlator operation
// identically.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/wire"
)

// Save writes the correlator deterministically: the ID cursor, then the
// predictions, instances, queues and live lists, each behind a count.
// Live lists go in ascending slice index and queues in ascending branch
// PC (map iteration order must not leak into the bytes); instances are
// numbered in live-list order and predictions queue by queue. It fails if
// any prediction still names a consumer — the caller has not drained the
// pipeline — and writes nothing then.
func (c *Correlator) Save(w *wire.Writer) error {
	live := make([]*Slice, 0, len(c.liveBySlice))
	for s, l := range c.liveBySlice {
		if len(l) > 0 {
			live = append(live, s)
		}
	}
	slices.SortFunc(live, func(a, b *Slice) int { return cmp.Compare(a.Index, b.Index) })
	queues := make([]*queue, 0, len(c.queues))
	for _, q := range c.queues {
		if len(q.entries) > 0 {
			queues = append(queues, q)
		}
	}
	slices.SortFunc(queues, func(a, b *queue) int { return cmp.Compare(a.branchPC, b.branchPC) })

	// Every surviving prediction's instance is live: RemoveInstance
	// removes its entries, and CommitKill removes an instance's entries
	// before dropping it from the live list.
	var insts []*Instance
	instIdx := make(map[*Instance]int)
	for _, s := range live {
		for _, inst := range c.liveBySlice[s] {
			if _, dup := instIdx[inst]; !dup {
				instIdx[inst] = len(insts)
				insts = append(insts, inst)
			}
		}
	}
	var preds []*Pred
	predIdx := make(map[*Pred]int)
	for _, q := range queues {
		for _, p := range q.entries {
			if p.Consumer != nil {
				return fmt.Errorf("slicehw: prediction for %#x still has a consumer; correlator not quiesced", p.BranchPC)
			}
			if _, ok := instIdx[p.inst]; !ok {
				return fmt.Errorf("slicehw: prediction for %#x belongs to a non-live instance", p.BranchPC)
			}
			predIdx[p] = len(preds)
			preds = append(preds, p)
		}
	}
	for _, inst := range insts {
		for _, p := range inst.entries {
			if _, ok := predIdx[p]; !ok && !p.removed {
				return fmt.Errorf("slicehw: instance %d holds an entry missing from its queue", inst.ID)
			}
		}
	}

	w.U64(c.nextID)
	w.U64(uint64(len(preds)))
	for _, p := range preds {
		w.U64(p.BranchPC)
		w.Bool(p.Filled)
		w.Bool(p.Dir)
		w.Bool(p.Used)
		w.Bool(p.UsedDir)
		w.Bool(p.Killed)
		w.U64(uint64(instIdx[p.inst]))
	}
	w.U64(uint64(len(insts)))
	for _, inst := range insts {
		w.U64(inst.ID)
		w.U64(uint64(inst.Slice.Index))
		w.U64(uint64(inst.skipLoopKill))
		w.U64(uint64(inst.skipSliceKill))
		w.Bool(inst.finished)
		n := 0
		for _, p := range inst.entries {
			if !p.removed {
				n++
			}
		}
		w.U64(uint64(n))
		for _, p := range inst.entries {
			if !p.removed {
				w.U64(uint64(predIdx[p]))
			}
		}
	}
	w.U64(uint64(len(queues)))
	for _, q := range queues {
		w.U64(q.branchPC)
		w.U64(uint64(len(q.entries)))
		for _, p := range q.entries {
			w.U64(uint64(predIdx[p]))
		}
	}
	w.U64(uint64(len(live)))
	for _, s := range live {
		w.U64(uint64(s.Index))
		w.U64(uint64(len(c.liveBySlice[s])))
		for _, inst := range c.liveBySlice[s] {
			w.U64(uint64(instIdx[inst]))
		}
	}
	return nil
}

// Load reads what Save wrote into a freshly built correlator (same
// maxPerBranch as at capture; the harness guarantees this via the warm
// config fingerprint), resolving slice indices against table. Errors
// latch in r and the first is returned. It accepts only what Save can
// write, so Save writes every accepted encoding back byte for byte:
//   - every slice, instance and prediction index is in range, and each
//     prediction is listed once, among the entries of the instance that
//     owns it;
//   - queues are non-empty, at most maxPerBranch long and in strictly
//     ascending branch PC, hold only predictions for their branch, and
//     together list every prediction once, in order;
//   - live lists are non-empty and in strictly ascending slice index,
//     hold only instances of their slice, and together list every
//     instance once, in order.
func (c *Correlator) Load(r *wire.Reader, table *Table) error {
	sl := table.Slices()
	fail := func(format string, args ...any) { r.Fail(fmt.Errorf("slicehw: "+format, args...)) }
	c.nextID = r.U64()

	preds := make([]*Pred, r.Count(21))
	owner := make([]uint64, len(preds))
	for i := range preds {
		preds[i] = &Pred{BranchPC: r.U64(), Filled: r.Bool(), Dir: r.Bool(), Used: r.Bool(), UsedDir: r.Bool(), Killed: r.Bool()}
		owner[i] = r.U64()
	}

	insts := make([]*Instance, r.Count(41))
	listed := make([]bool, len(preds))
	for i := range insts {
		id, si := r.U64(), r.U64()
		inst := &Instance{ID: id, skipLoopKill: int(r.U64()), skipSliceKill: int(r.U64()), finished: r.Bool()}
		if r.Err() == nil && si >= uint64(len(sl)) {
			fail("checkpoint references slice %d of %d", si, len(sl))
		}
		if r.Err() != nil {
			return r.Err()
		}
		inst.Slice = sl[si]
		for j, m := 0, r.Count(8); j < m; j++ {
			pi := r.U64()
			if r.Err() == nil && (pi >= uint64(len(preds)) || owner[pi] != uint64(i) || listed[pi]) {
				fail("instance %d entry %d names prediction %d of %d: out of range, another instance's or listed twice", i, j, pi, len(preds))
			}
			if r.Err() != nil {
				return r.Err()
			}
			listed[pi] = true
			inst.entries = append(inst.entries, preds[pi])
		}
		insts[i] = inst
	}
	for i, p := range preds {
		if r.Err() == nil && !listed[i] {
			fail("prediction %d is not listed by its instance %d of %d", i, owner[i], len(insts))
		}
		if r.Err() != nil {
			return r.Err()
		}
		p.inst = insts[owner[i]]
	}

	c.queues = make(map[uint64]*queue)
	next := 0 // the prediction the next queue entry must name
	for i, m, prev := 0, r.Count(16), uint64(0); i < m; i++ {
		pc, k := r.U64(), r.Count(8)
		switch {
		case r.Err() != nil:
		case i > 0 && pc <= prev:
			fail("queue %#x out of order", pc)
		case k == 0 || k > c.maxPerBranch:
			fail("queue %#x holds %d entries, max %d", pc, k, c.maxPerBranch)
		}
		q := &queue{branchPC: pc, entries: make([]*Pred, 0, k)}
		for j := 0; j < k && r.Err() == nil; j++ {
			switch pi := r.U64(); {
			case r.Err() != nil:
			case pi != uint64(next) || next >= len(preds):
				fail("queue %#x names prediction %d, want %d of %d", pc, pi, next, len(preds))
			case preds[next].BranchPC != pc:
				fail("queue %#x holds a prediction for %#x", pc, preds[next].BranchPC)
			default:
				q.entries = append(q.entries, preds[next])
				next++
			}
		}
		if r.Err() != nil {
			return r.Err()
		}
		c.queues[pc] = q
		prev = pc
	}
	if r.Err() == nil && next != len(preds) {
		fail("queues hold %d of %d predictions", next, len(preds))
	}

	c.liveBySlice = make(map[*Slice][]*Instance)
	next = 0 // the instance the next live-list entry must name
	for i, m, prev := 0, r.Count(16), uint64(0); i < m; i++ {
		si, k := r.U64(), r.Count(8)
		switch {
		case r.Err() != nil:
		case si >= uint64(len(sl)) || i > 0 && si <= prev:
			fail("checkpoint live list references slice %d of %d, out of order or range", si, len(sl))
		case k == 0:
			fail("live list of slice %d is empty", si)
		}
		if r.Err() != nil {
			return r.Err()
		}
		live := make([]*Instance, 0, k)
		for j := 0; j < k && r.Err() == nil; j++ {
			switch ii := r.U64(); {
			case r.Err() != nil:
			case ii != uint64(next) || next >= len(insts):
				fail("live list of slice %d names instance %d, want %d of %d", si, ii, next, len(insts))
			case insts[next].Slice != sl[si]:
				fail("live list of slice %d holds an instance of slice %d", si, insts[next].Slice.Index)
			default:
				live = append(live, insts[next])
				next++
			}
		}
		c.liveBySlice[sl[si]] = live
		prev = si
	}
	if r.Err() == nil && next != len(insts) {
		fail("live lists hold %d of %d instances", next, len(insts))
	}
	return r.Err()
}
