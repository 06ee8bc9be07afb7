package cpu

import "repro/internal/stats"

// squashAfter removes every instruction of di's thread younger than di,
// undoing functional side effects (youngest first), correlator actions,
// and helper forks. The thread's speculative front-end state is restored
// from di's post-instruction checkpoint.
func (c *Core) squashAfter(di *DynInst) {
	t := di.Thread

	squashed := uint64(0)
	// The fetch queue holds the youngest instructions.
	for t.fetchq.len() > 0 && t.fetchq.back().Seq > di.Seq {
		c.squashInst(t.fetchq.popBack())
		squashed++
	}
	for t.rob.len() > 0 && t.rob.back().Seq > di.Seq {
		c.squashInst(t.rob.popBack())
		squashed++
	}
	if squashed > 0 && c.tracer != nil {
		c.emit(stats.Event{Kind: stats.EvSquash, PC: di.PC, N: squashed})
	}

	// Drop squashed stores from the disambiguation list (their Squashed
	// flags stay readable until the pool reuses them — see pool.go).
	ps := t.pendingStores
	kept := ps[:0]
	for _, s := range ps {
		if !s.Squashed {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(ps); i++ {
		ps[i] = nil
	}
	t.pendingStores = kept

	// Restore speculative front-end state to just after di.
	t.Hist = di.HistAfter
	t.Path = di.PathAfter
	t.RAS.Restore(di.RASAfter)
	t.LoopCount = di.LoopAfter
	t.icStallUntil = 0
	if t.waitResolve != nil && t.waitResolve.Seq > di.Seq {
		t.waitResolve = nil
	}
}

// squashInst tears down one instruction: functional undo, correlator undo
// (exact mis-speculation recovery, §5.2), and squashing of helper threads
// it forked.
func (c *Core) squashInst(x *DynInst) {
	if x.Squashed {
		return
	}
	x.Squashed = true
	p := x.Thread.prog
	// Capture before undo() clears the record: a noted store must leave
	// the committed-store queue.
	notedStore := x.Thread.IsMain && x.undoMemValid
	x.undo(c)

	if p.corr != nil {
		p.corr.UndoUse(x.UsedPred)
		for i := len(x.KillRecs) - 1; i >= 0; i-- {
			p.corr.UndoKill(x.KillRecs[i])
		}
		p.corr.UndoAllocate(x.AllocPred)
	}
	if hk := x.row.hooks; hk != nil && len(hk.forks) > 0 {
		// A context x forked may since have been reaped and forked again by
		// another instruction; only a helper that records x's Seq is x's.
		// Scanning in thread order squashes x's helpers in fork order.
		for _, h := range c.threads {
			if h.Alive && !h.IsMain && h.forkSeq == x.Seq {
				c.squashHelper(h)
			}
		}
	}
	if x.Dispatched {
		c.window--
		if !x.Thread.IsMain {
			c.helperWindow--
		}
	}
	if x.Thread.IsMain {
		p.S.MainWrongPath++
	}
	if notedStore {
		p.dropSquashedStore(x)
	}
	// Every scheduler and writer-chain reference to x is an instRef, dead
	// from here on (pool.go), so x goes straight back to the pool.
	c.pool = append(c.pool, x)
}

// squashHelper kills a helper thread whose fork point was squashed: all of
// its instructions are undone, its correlator instance (and thus all its
// predictions) removed, and the context freed.
func (c *Core) squashHelper(h *Thread) {
	if !h.Alive {
		return
	}
	p := h.prog
	p.S.ForksSquashed++
	if h.Slice != nil {
		c.emit(stats.Event{Kind: stats.EvForkSquash, Slice: h.Slice.Index})
	}
	for h.fetchq.len() > 0 {
		c.squashInst(h.fetchq.popBack())
	}
	for h.rob.len() > 0 {
		c.squashInst(h.rob.popBack())
	}
	p.corr.RemoveInstance(h.Instance)
	h.Alive = false
	h.Fetching = false
}
