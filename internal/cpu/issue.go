package cpu

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/slicehw"
	"repro/internal/stats"
)

// issueStage selects ready instructions oldest-first across all threads,
// subject to issue width, load/store ports, and the single complex unit
// (Table 1). Scheduling happens in the cycle an instruction executes,
// which — as the paper notes — is equivalent to a perfect load hit/miss
// predictor: dependents of a missing load are simply not scheduled early.
//
// The ready list is maintained incrementally (sched.go): its live entries
// are exactly the dispatched, unissued instructions whose producers have
// completed and whose older stores have issued, already in seq order —
// the same set the old per-cycle window scan collected and sorted. Entries
// squashed since they became ready are dropped here.
func (c *Core) issueStage() {
	issued, memUsed, cplxUsed := 0, 0, 0
	kept := c.ready[:0]
	for _, r := range c.ready {
		di := r.live()
		if di == nil {
			continue
		}
		if issued == c.cfg.IssueWidth {
			kept = append(kept, r)
			continue
		}
		switch {
		case di.Static.IsMem():
			if memUsed == c.cfg.LdStPorts {
				kept = append(kept, r)
				continue
			}
			memUsed++
		case di.Static.IsComplex():
			if cplxUsed == complexUnits {
				kept = append(kept, r)
				continue
			}
			cplxUsed++
		}
		di.inReady = false
		c.issue(di)
		issued++
	}
	clear(c.ready[len(kept):])
	c.ready = kept

	// Loads whose last blocking store issued this cycle become ready for
	// the *next* cycle, as under the old scan.
	for i, w := range c.storeWoken {
		c.storeWoken[i] = nil
		if !w.Squashed {
			c.readyInsert(w)
		}
	}
	c.storeWoken = c.storeWoken[:0]
}

// issue starts execution and computes the completion time.
func (c *Core) issue(di *DynInst) {
	di.Issued = true
	di.IssueCycle = c.now
	in := di.Static

	switch {
	case in.IsLoad():
		di.CompleteCycle = c.now + c.loadLatency(di)
	case in.IsStore():
		// Address generation; data heads to memory at retire.
		di.CompleteCycle = c.now + 1
		c.unpend(di)
		c.wakeWaiters(di)
	case in.IsComplex():
		lat := uint64(mulLatency)
		if in.Op == isa.DIV {
			lat = divLatency
		}
		di.CompleteCycle = c.now + lat
	default:
		di.CompleteCycle = c.now + 1
	}
	c.calFile(di)
}

// unpend removes an issued store from the disambiguation list, in place:
// the old three-index append forced a fresh backing array per store.
func (c *Core) unpend(di *DynInst) {
	ps := di.Thread.pendingStores
	for i, s := range ps {
		if s == di {
			last := len(ps) - 1
			copy(ps[i:], ps[i+1:])
			ps[last] = nil
			di.Thread.pendingStores = ps[:last]
			return
		}
	}
}

// loadLatency runs the load through forwarding, the perfect-load modes,
// and the cache hierarchy.
func (c *Core) loadLatency(di *DynInst) uint64 {
	latL1 := c.cfg.Mem.LatL1
	if di.Out.Fault {
		return latL1
	}
	if di.Thread.IsMain && di.row.perfectLoad {
		di.PerfectLoad = true
		return latL1
	}

	// Store→load forwarding from in-flight stores of the same thread.
	if di.Thread.IsMain {
		if s := c.forwardingStore(di); s != nil {
			di.forwarded = true
			lat := latL1
			if s.CompleteCycle > c.now {
				lat = s.CompleteCycle - c.now + 1
			}
			return lat
		}
	}

	kind := cache.KindDemand
	if !di.Thread.IsMain {
		kind = cache.KindHelper
	}
	p := di.Thread.prog
	r := c.hier.Access(p.physAddr(di.Out.Addr), false, kind, c.now)
	di.MemResult = r
	if kind == cache.KindHelper && (r.Level == cache.LevelL2 || r.Level == cache.LevelMem) {
		// The helper load actually moved a line toward the L1 — a
		// "prefetch performed" in Table 4's terms.
		p.S.SlicePrefetches++
	}
	return r.Latency
}

// forwardingStore returns the youngest older in-flight store overlapping
// the load, if any.
func (c *Core) forwardingStore(di *DynInst) *DynInst {
	var best *DynInst
	rob := &di.Thread.rob
	for i, n := 0, rob.len(); i < n; i++ {
		s := rob.at(i)
		if s.Seq >= di.Seq {
			break
		}
		if !s.Static.IsStore() || s.Squashed || !s.Issued || s.Out.Fault {
			continue
		}
		if overlaps(s.Out.Addr, s.Out.Size, di.Out.Addr, di.Out.Size) {
			if best == nil || s.Seq > best.Seq {
				best = s
			}
		}
	}
	return best
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

// completeStage finalizes instructions whose completion time arrived:
// branch resolution (with squash and redirect), PGI value routing to the
// correlator, and late-prediction early resolution (§5.3).
func (c *Core) completeStage() {
	// The calendar delivers exactly the instructions whose CompleteCycle
	// arrived (issued, unsquashed), already merged into seq order by
	// insertBySeq — the same set and order the old per-thread ROB scan
	// collected.
	done := c.calDrain(c.doneList[:0])

	for _, r := range done {
		di := r.live()
		if di == nil {
			continue // an older completion this cycle squashed it
		}
		di.Completed = true
		c.wakeWaiters(di)
		if di.Static.IsCtrl() {
			c.resolveCtrl(di)
		}
		if di.AllocPred != (slicehw.PredRef{}) {
			c.fillPGI(di)
		}
	}
	clear(done)
	c.doneList = done[:0]
}

// resolveCtrl handles branch resolution at execute.
func (c *Core) resolveCtrl(di *DynInst) {
	t := di.Thread
	if di.NoTargetPred {
		// The front end stalled for this target; deliver it. The path
		// push predictCtrl deferred (no prediction existed to push)
		// happens here with the *resolved* target, so later indirect
		// predictions key on history a real target can match — pushing
		// the 0 sentinel at fetch polluted the path for the rest of the
		// run.
		c.squashAfter(di)
		if di.Static.IsIndirectCtrl() && !di.Static.IsRet() {
			t.Path = bpred.PushPath(di.PathBefore, di.Out.Target)
			di.PathAfter = t.Path
		}
		t.PC = di.actualNextPC()
		t.waitResolve = nil
		t.Fetching = true
		return
	}
	if !di.Mispredicted {
		return
	}
	c.squashAfter(di)
	// Correct the speculative front-end state past this branch.
	if di.Static.IsCondBranch() {
		t.Hist = pushHist(di.HistBefore, di.Out.Taken)
	}
	if di.Static.IsIndirectCtrl() && !di.Static.IsRet() {
		t.Path = bpred.PushPath(di.PathBefore, di.Out.Target)
	}
	di.HistAfter = t.Hist
	di.PathAfter = t.Path
	t.PC = di.actualNextPC()
	t.Fetching = true
	// The branch is now resolved; do not re-trigger recovery.
	di.PredTaken = di.Out.Taken
	di.PredTarget = di.Out.Target
}

// fillPGI routes a computed prediction to the correlator and performs
// early resolution when a late prediction contradicts the direction its
// consumer fetched with.
func (c *Core) fillPGI(di *DynInst) {
	p := di.Thread.prog
	val := di.Out.Value
	dir := val != 0
	if di.row.pgi.PGI.TakenIfZero {
		dir = val == 0
	}
	res := p.corr.Fill(di.AllocPred, dir)
	if res.Applied {
		// A helper actually produced a prediction — Table 4's
		// "predictions generated", as opposed to predictions consumed.
		p.S.PredsGenerated++
	}
	if !res.LateMismatch {
		return
	}
	consumer, ok := res.Consumer.(*DynInst)
	if !ok || consumer.Squashed || consumer.Completed || consumer.Retired {
		return
	}
	// Early resolution: redirect the consumer's fetch to the slice's
	// direction before the branch executes. Slices are not necessarily
	// correct, so this can introduce extra squashes; those are repaired
	// when the branch resolves (§5.3).
	p.S.EarlyResolutions++
	dirs := "not-taken"
	if dir {
		dirs = "taken"
	}
	c.emit(stats.Event{Kind: stats.EvEarlyResolve, PC: consumer.PC, Dir: dirs})
	t := consumer.Thread
	c.squashAfter(consumer)
	consumer.PredTaken = dir
	consumer.Mispredicted = dir != consumer.Out.Taken
	t.Hist = pushHist(consumer.HistBefore, dir)
	consumer.HistAfter = t.Hist
	t.PC = consumer.predictedNextPC()
	t.Fetching = true
	p.corr.RedirectUse(consumer.UsedPred, dir)
}
