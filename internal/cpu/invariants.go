package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/slicehw"
)

// This file implements the core's structural invariant checker — the
// oracle's second half. Where the lockstep diff validates the *stream*
// the core retires, CheckInvariants validates the *bookkeeping* the
// zero-alloc machinery maintains: pool recycling, ring-buffer occupancy
// vs. window accounting, the register-writer chains, the committed-store
// queue, the incremental scheduler's waiter and ready lists, and the
// correlator's binding liveness. Dead instRefs are legal anywhere; a live
// one that reaches a pooled instruction is not. It runs per-N-cycles when
// the oracle is attached (and from tests), never from the bare cycle
// loop, so it allocates freely and favors clarity.

// CheckInvariants validates the core's structural invariants and returns
// the first violation found, or nil. It may be called between cycles or
// from a RetireObserver (the instruction currently being retired is
// mid-release and is exempted from liveness checks).
func (c *Core) CheckInvariants() error {
	// Window accounting vs. actual ring occupancy: every ROB shares the
	// one window.
	helperROB, mainROB := 0, 0
	for _, t := range c.threads {
		if t.IsMain {
			mainROB += t.rob.len()
		} else {
			helperROB += t.rob.len()
		}
	}
	if c.window != mainROB+helperROB {
		return fmt.Errorf("cpu: window=%d but ROB occupancy says %d (main %d, helper %d)",
			c.window, mainROB+helperROB, mainROB, helperROB)
	}
	if c.helperWindow != helperROB {
		return fmt.Errorf("cpu: helperWindow=%d but helper ROBs hold %d", c.helperWindow, helperROB)
	}

	// Pool sanity: every free-listed instruction was released through
	// retirement or squash.
	pooled := make(map[*DynInst]bool, len(c.pool))
	for i, d := range c.pool {
		if d == nil {
			return fmt.Errorf("cpu: pool slot %d is nil", i)
		}
		if !d.Retired && !d.Squashed {
			return fmt.Errorf("cpu: pooled instruction seq=%d pc=%#x was never retired or squashed", d.Seq, d.PC)
		}
		// scrub clears only [:len] of the recycled slices, so a pointer
		// left past len would be pinned by the pool and resurface on reuse.
		for _, tail := range [...]struct {
			name string
			i    int
		}{
			{"KillRecs", liveTail(d.KillRecs)},
			{"waiters", liveTail(d.waiters)},
		} {
			if tail.i >= 0 {
				return fmt.Errorf("cpu: pooled instruction seq=%d pc=%#x holds a pointer past len in %s[%d]",
					d.Seq, d.PC, tail.name, tail.i)
			}
		}
		pooled[d] = true
	}

	for _, t := range c.threads {
		if err := c.checkThread(t, pooled); err != nil {
			return err
		}
	}

	// Ready list: sorted by stored seq; every live entry dispatched,
	// unissued and wakeup-free.
	for i, r := range c.ready {
		if r.di == nil {
			return fmt.Errorf("cpu: ready[%d] is nil", i)
		}
		if i > 0 && c.ready[i-1].seq >= r.seq {
			return fmt.Errorf("cpu: ready list out of order at %d (seq %d then %d)", i, c.ready[i-1].seq, r.seq)
		}
		d := r.live()
		switch {
		case d == nil:
		case pooled[d]:
			return fmt.Errorf("cpu: ready[%d] (seq=%d) is a pooled instruction", i, d.Seq)
		case !d.inReady:
			return fmt.Errorf("cpu: ready[%d] (seq=%d) not marked inReady", i, d.Seq)
		case !d.Dispatched || d.Issued || d.Retired:
			return fmt.Errorf("cpu: ready[%d] (seq=%d) in impossible state disp=%t issued=%t retired=%t",
				i, d.Seq, d.Dispatched, d.Issued, d.Retired)
		case d.waitCount != 0:
			return fmt.Errorf("cpu: ready[%d] (seq=%d) still has %d pending wakeups", i, d.Seq, d.waitCount)
		}
	}

	// Committed-store queues: each program's in-flight main-thread stores
	// with a recorded memory effect, in fetch order.
	for pi, prog := range c.progs {
		var prevStore *DynInst
		for i := 0; i < prog.mainStores.len(); i++ {
			d := prog.mainStores.at(i)
			switch {
			case d == nil:
				return fmt.Errorf("cpu: p%d mainStores[%d] is nil", pi, i)
			case pooled[d]:
				return fmt.Errorf("cpu: p%d mainStores[%d] (seq=%d) is a pooled instruction", pi, i, d.Seq)
			case !d.Thread.IsMain:
				return fmt.Errorf("cpu: p%d mainStores[%d] (seq=%d) belongs to a helper thread", pi, i, d.Seq)
			case d.Thread.prog != prog:
				return fmt.Errorf("cpu: p%d mainStores[%d] (seq=%d) belongs to program %d", pi, i, d.Seq, d.Thread.ProgIndex())
			case !d.Static.IsStore():
				return fmt.Errorf("cpu: p%d mainStores[%d] (seq=%d, pc=%#x) is not a store", pi, i, d.Seq, d.PC)
			case !d.undoMemValid:
				return fmt.Errorf("cpu: p%d mainStores[%d] (seq=%d) has no recorded memory effect", pi, i, d.Seq)
			case d.Squashed:
				return fmt.Errorf("cpu: p%d mainStores[%d] (seq=%d) is squashed but still queued", pi, i, d.Seq)
			case d.Retired && d != c.retiring:
				return fmt.Errorf("cpu: p%d mainStores[%d] (seq=%d) is retired but still queued", pi, i, d.Seq)
			case prevStore != nil && prevStore.Seq >= d.Seq:
				return fmt.Errorf("cpu: p%d mainStores out of order at %d (seq %d then %d)", pi, i, prevStore.Seq, d.Seq)
			}
			prevStore = d
		}
	}

	// Correlator structure, plus binding liveness against the pool: every
	// bound Consumer must be a live in-flight instruction that still
	// points back at its prediction. Each program's correlator is checked
	// against the shared pool.
	for _, prog := range c.progs {
		if prog.corr == nil {
			continue
		}
		if err := prog.corr.CheckInvariants(); err != nil {
			return err
		}
		var corrErr error
		prog.corr.ForEachLivePred(func(p *slicehw.Pred) {
			if corrErr != nil || p.Consumer == nil {
				return
			}
			d, ok := p.Consumer.(*DynInst)
			if !ok {
				corrErr = fmt.Errorf("cpu: prediction for branch %#x bound to a non-instruction consumer", p.BranchPC)
				return
			}
			if d == c.retiring {
				return // mid-retirement; DropConsumer runs at release
			}
			if pooled[d] || d.Retired || d.Squashed {
				corrErr = fmt.Errorf("cpu: prediction for branch %#x bound to dead instruction seq=%d (pooled=%t retired=%t squashed=%t)",
					p.BranchPC, d.Seq, pooled[d], d.Retired, d.Squashed)
				return
			}
			if d.UsedPred.Live() != p {
				corrErr = fmt.Errorf("cpu: prediction for branch %#x bound to seq=%d which does not point back at it", p.BranchPC, d.Seq)
			}
		})
		if corrErr != nil {
			return corrErr
		}
	}
	return nil
}

// checkThread validates one thread's rings, the waiter lists of their
// instructions, and the thread's register-writer chains.
func (c *Core) checkThread(t *Thread, pooled map[*DynInst]bool) error {
	checkRing := func(name string, r *instRing, dispatched bool) (last *DynInst, err error) {
		var prev *DynInst
		for i := 0; i < r.len(); i++ {
			d := r.at(i)
			switch {
			case d == nil:
				return nil, fmt.Errorf("cpu: t%d %s[%d] is nil", t.ID, name, i)
			case pooled[d]:
				return nil, fmt.Errorf("cpu: t%d %s[%d] (seq=%d) is a pooled instruction", t.ID, name, i, d.Seq)
			case d.Thread != t:
				return nil, fmt.Errorf("cpu: t%d %s[%d] (seq=%d) belongs to thread %d", t.ID, name, i, d.Seq, d.Thread.ID)
			case d.Retired || d.Squashed:
				return nil, fmt.Errorf("cpu: t%d %s[%d] (seq=%d) retired=%t squashed=%t but still queued",
					t.ID, name, i, d.Seq, d.Retired, d.Squashed)
			case d.Dispatched != dispatched:
				return nil, fmt.Errorf("cpu: t%d %s[%d] (seq=%d) dispatched=%t", t.ID, name, i, d.Seq, d.Dispatched)
			case d.Issued && !d.Dispatched, d.Completed && !d.Issued:
				return nil, fmt.Errorf("cpu: t%d %s[%d] (seq=%d) stage flags out of order (disp=%t issued=%t completed=%t)",
					t.ID, name, i, d.Seq, d.Dispatched, d.Issued, d.Completed)
			case prev != nil && prev.Seq >= d.Seq:
				return nil, fmt.Errorf("cpu: t%d %s out of order at %d (seq %d then %d)", t.ID, name, i, prev.Seq, d.Seq)
			}
			// A live subscriber is a younger, still-waiting instruction:
			// its producer drains the list when it wakes it.
			for j, wr := range d.waiters {
				w := wr.live()
				switch {
				case w == nil:
				case pooled[w]:
					return nil, fmt.Errorf("cpu: t%d %s[%d] (seq=%d) waiters[%d] (seq=%d) is a pooled instruction",
						t.ID, name, i, d.Seq, j, w.Seq)
				case w.Seq <= d.Seq || w.Issued || w.waitCount == 0:
					return nil, fmt.Errorf("cpu: t%d %s[%d] (seq=%d) waiters[%d] (seq=%d) is not a younger waiting instruction (issued=%t waitCount=%d)",
						t.ID, name, i, d.Seq, j, w.Seq, w.Issued, w.waitCount)
				}
			}
			prev = d
		}
		return prev, nil
	}
	lastROB, err := checkRing("rob", &t.rob, true)
	if err != nil {
		return err
	}
	if _, err := checkRing("fetchq", &t.fetchq, false); err != nil {
		return err
	}
	if lastROB != nil && t.fetchq.len() > 0 && t.fetchq.front().Seq <= lastROB.Seq {
		return fmt.Errorf("cpu: t%d fetchq front seq=%d not younger than ROB back seq=%d",
			t.ID, t.fetchq.front().Seq, lastROB.Seq)
	}

	// Writer chains: walking lastWriter[r] through prevWriter, up to the
	// first retired writer (whose older links fetch never consults), must
	// visit same-thread writers of r in strictly decreasing fetch order;
	// the ordering also rules out a cycle.
	for r := 0; r < isa.NumRegs; r++ {
		for w := t.lastWriter[r].live(); w != nil && !w.Retired; w = w.prevWriter.live() {
			if w.Thread != t {
				return fmt.Errorf("cpu: t%d writer chain for r%d reaches thread-%d instruction seq=%d", t.ID, r, w.Thread.ID, w.Seq)
			}
			if dest, ok := w.Static.Dest(); !ok || dest != isa.Reg(r) {
				return fmt.Errorf("cpu: t%d writer chain for r%d reaches seq=%d which writes a different register", t.ID, r, w.Seq)
			}
			if p := w.prevWriter.live(); p != nil && p.Seq >= w.Seq {
				return fmt.Errorf("cpu: t%d writer chain for r%d not age-ordered (seq %d then %d)", t.ID, r, w.Seq, p.Seq)
			}
		}
	}
	return nil
}

// liveTail returns the index of the first non-zero slot in s[len:cap], or
// -1 if that tail is all zero.
func liveTail[T comparable](s []T) int {
	var zero T
	for i, p := range s[len(s):cap(s)] {
		if p != zero {
			return len(s) + i
		}
	}
	return -1
}
