package cpu

import (
	"repro/internal/cache"
	"repro/internal/slicehw"
)

// DynInst pooling: the per-core free list, the scrub-on-allocate contract,
// and the release hooks called at retire and squash. The invariant that
// makes recycling safe is that *every* pointer into an instruction is
// severed before it reaches the pool:
//
//   - scheduler subscriptions (deps, olderStores, waiters, the ready
//     list) are drained at wakeup or deregistered at squash;
//   - the register-writer chain (lastWriter / prevWriter) is unlinked at
//     retire, and restored through undo() at squash;
//   - the correlator's Consumer handle is cleared at retire
//     (DropConsumer) or squash (UndoUse);
//   - the instruction's own correlator handles (UsedPred, AllocPred,
//     KillRecs) are released and nil'd (dropCorrHandles), because the
//     correlator pools those objects under the same contract;
//   - the committed-store queue pops the instruction the moment it
//     retires or squashes;
//   - forked helper threads drop their ForkInst back-reference.
//
// Scrubbing happens at *allocation*, not release: same-cycle consumers
// (the pendingStores compaction after a squash, the completion list's
// Squashed check) may still read a released instruction's flags, and those
// reads stay valid until the slot is reused by a later fetch — which is
// always in a later pipeline stage of the same cycle or a later cycle.
// DESIGN.md ("Zero-allocation cycle loop") documents the full contract;
// the snapshot-determinism test is the guard that a stale field can never
// change simulated outcomes.

// allocInst returns a scrubbed instruction, recycling the free list and
// falling back to the current chunk of never-used instructions.
func (c *Core) allocInst() *DynInst {
	if n := len(c.pool); n > 0 {
		d := c.pool[n-1]
		c.pool[n-1] = nil
		c.pool = c.pool[:n-1]
		d.scrub()
		return d
	}
	if len(c.spare) == 0 {
		c.spare = newInstChunk()
	}
	d := &c.spare[0]
	c.spare = c.spare[1:]
	return d
}

// Instructions are created instChunk at a time, with initial capacity for
// their four per-instruction slices carved from shared arrays: waiterSlots
// for waiters, storeSlots for olderStores (a load waits on every older
// unissued store), one each for KillRecs and Forked. A fresh or restored
// core then reaches its working set in a handful of allocations instead
// of one per instruction and one per first append. An append past the
// carved capacity reallocates that slice alone (the full slice
// expressions cap each at its own region).
const (
	instChunk   = 64
	waiterSlots = 8
	storeSlots  = 16
)

func newInstChunk() []DynInst {
	const deps = waiterSlots + storeSlots
	insts := make([]DynInst, instChunk)
	dep := make([]*DynInst, deps*instChunk)
	recs := make([]*slicehw.KillRecord, instChunk)
	forked := make([]*Thread, instChunk)
	for i := range insts {
		d := &insts[i]
		w := deps * i
		s := w + waiterSlots
		d.waiters = dep[w:w:s]
		d.olderStores = dep[s : s : s+storeSlots]
		d.KillRecs = recs[i : i : i+1]
		d.Forked = forked[i : i : i+1]
	}
	return insts
}

// scrub resets a recycled instruction while keeping the
// KillRecs/Forked/waiters/olderStores backing arrays for reuse. Only
// [:len] of each slice is nil'd: every site that shortens one of them
// (wakeWaiters, wakeStoreWaiters, dropStore, removeWaiter, deregister,
// dropCorrHandles) nils the dropped slots first, so [len:cap] is already nil and the pool
// pins no correlator record, thread or instruction beyond its lifetime.
// CheckInvariants verifies that tail for every pooled instruction.
//
// Resetting is selective: a full-struct copy (`*d = DynInst{...}`) was the
// hottest single line of the cycle loop, and most fields don't need it.
// Fields fetchOne assigns unconditionally before anything can read them —
// Thread, Static, row, PC, Seq, FetchCycle, Out, HistAfter, PathAfter,
// RASAfter, LoopAfter — keep their stale values through allocation. The
// cycle timestamps (DispatchCycle, IssueCycle, CompleteCycle) and the
// undo-log payloads (undoReg*, undoMem* other than the valid bits) are
// read only behind flags that are reset here or freshly written, and the
// completion calendar additionally validates Seq, so they stay stale too.
// Everything conditionally written in a lifetime is reset below; the
// snapshot-determinism tests and the harness goldens guard the contract.
func (d *DynInst) scrub() {
	clear(d.KillRecs)
	clear(d.Forked)
	clear(d.waiters)
	clear(d.olderStores)
	d.KillRecs, d.Forked, d.waiters, d.olderStores = d.KillRecs[:0], d.Forked[:0], d.waiters[:0], d.olderStores[:0]

	d.PredTaken, d.PredTarget = false, 0
	d.NoTargetPred, d.Mispredicted = false, false
	d.HistBefore, d.PathBefore = 0, 0
	d.UsedPred, d.UsedOverride = nil, false
	d.AllocPred = nil
	d.undoRegValid, d.undoMemValid = false, false
	d.prevWriter, d.nextWriter = nil, nil
	d.deps = [3]*DynInst{}
	d.ndeps, d.waitCount, d.inReady = 0, 0, false
	d.Dispatched, d.Issued, d.Completed, d.Squashed, d.Retired = false, false, false, false, false
	d.PerfectLoad, d.forwarded = false, false
	d.MemResult = cache.Result{}
}

// releaseRetired returns a retired instruction to the pool, first severing
// the pointers that could otherwise resurrect it.
func (c *Core) releaseRetired(d *DynInst) {
	t := d.Thread
	if dest, ok := d.Static.Dest(); ok {
		if t.lastWriter[dest] == d {
			// A retired writer is Completed, which fetch's dependence scan
			// treats exactly like "no in-flight producer".
			t.lastWriter[dest] = nil
		} else if w := d.nextWriter; w != nil && w.prevWriter == d {
			// The younger in-flight writer checkpointed this instruction as
			// its prevWriter; restoring a Completed writer on its squash
			// would be equivalent to nil, so unlink it.
			w.prevWriter = nil
		}
		d.nextWriter = nil
	}
	if p := d.Thread.prog; p.corr != nil {
		if d.UsedPred != nil {
			p.corr.DropConsumer(d.UsedPred, d)
		}
		d.dropCorrHandles(p.corr)
	}
	c.dropForkRefs(d)
	c.pool = append(c.pool, d)
}

// dropCorrHandles severs the instruction's correlator handles once they
// have been committed or undone: the pins on UsedPred and AllocPred are
// released, and the consumed kill records (already recycled by
// CommitKill/UndoKill) are forgotten.
func (d *DynInst) dropCorrHandles(corr *slicehw.Correlator) {
	if d.UsedPred != nil {
		corr.ReleasePred(d.UsedPred)
		d.UsedPred = nil
	}
	if d.AllocPred != nil {
		corr.ReleasePred(d.AllocPred)
		d.AllocPred = nil
	}
	clear(d.KillRecs)
	d.KillRecs = d.KillRecs[:0]
}

// releaseSquashed returns a squashed instruction to the pool. Scheduler
// deregistration already happened in squashInst, undo() restored the
// writer chain, and UndoUse cleared any correlator consumer handle.
func (c *Core) releaseSquashed(d *DynInst) {
	c.dropForkRefs(d)
	c.pool = append(c.pool, d)
}

// dropForkRefs clears the back-reference a forked helper context keeps to
// its fork point. The identity check matters: a drained context may have
// been re-forked by a different instruction while this one was in flight.
func (c *Core) dropForkRefs(d *DynInst) {
	for _, h := range d.Forked {
		if h.ForkInst == d {
			h.ForkInst = nil
		}
	}
}
