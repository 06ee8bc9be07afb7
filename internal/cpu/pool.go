package cpu

import (
	"repro/internal/cache"
	"repro/internal/slicehw"
)

// DynInst pooling: the per-core free list, the scrub-on-allocate contract,
// and the one rule for references into pooled instructions.
//
// A retired or squashed instruction goes back to the pool at once, while
// other instructions, the calendar, the ready list and the threads may
// still refer to it. Every such reference is an instRef: the pointer plus
// the Seq (Von Neumann number, §5.2) the instruction carried when the
// reference was taken. Seqs are never reused, so instRef.live finds a
// reference dead once its instruction is squashed (Squashed stays set
// until reuse) or recycled (reuse assigns a fresh Seq), and every reader
// drops dead references where it meets them. Squash and retire therefore
// unlink nothing from the scheduler or the register-writer chain:
//
//   - the completion calendar, the ready list and each instruction's
//     waiters hold instRefs and skip dead ones as they drain;
//   - the register-writer chain (lastWriter / prevWriter) holds instRefs;
//     undo() at squash restores lastWriter[dest], and a retired writer,
//     still live until reuse, is Completed, which fetch's dependence scan
//     treats exactly like no in-flight producer.
//
// The correlator pools its instances and predictions under the same rule
// (slicehw.InstRef, slicehw.PredRef: checked by instance ID), and each
// helper context records the Seq of the instruction that forked it, which
// a squash matches. Two owners still keep raw pointers and release them
// explicitly, because they act on what they point to:
//
//   - the correlator's Consumer handle is cleared at retire
//     (DropConsumer) or squash (UndoUse);
//   - each program's store queue (stores.go) drops a store the moment
//     it retires or squashes.
//
// An instruction's kill records are consumed exactly once, by CommitKill
// at retire or UndoKill at squash, and are not read after.
//
// Scrubbing happens at *allocation*, not release: same-cycle consumers
// (the deferred store wakeups' and the completion list's Squashed checks)
// may still read a released instruction's flags, and those
// reads stay valid until the slot is reused by a later fetch — which is
// always in a later pipeline stage of the same cycle or a later cycle.
// DESIGN.md ("DynInst pooling") documents the full contract; the
// export golden and the snapshot-determinism tests guard that a stale
// field can never change simulated outcomes.

// instRef is a reference into the pool, checked by the Seq it was taken
// at. The zero instRef is dead.
type instRef struct {
	di  *DynInst
	seq uint64
}

// ref returns a reference to d's current dynamic instruction.
func (d *DynInst) ref() instRef { return instRef{d, d.Seq} }

// live returns the referenced instruction, or nil once it was squashed or
// recycled. A retired instruction stays live until the pool reuses it.
func (r instRef) live() *DynInst {
	if d := r.di; d != nil && d.Seq == r.seq && !d.Squashed {
		return d
	}
	return nil
}

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
// their two per-instruction slices carved from shared arrays: waiterSlots
// for waiters, one for KillRecs. A fresh or restored core then reaches its
// working set in a handful of allocations instead of one per instruction
// and one per first append. An append past the carved capacity
// reallocates that slice alone (the full slice expressions cap each at its
// own region).
const (
	instChunk   = 64
	waiterSlots = 8
)

func newInstChunk() []DynInst {
	insts := make([]DynInst, instChunk)
	waiters := make([]instRef, waiterSlots*instChunk)
	recs := make([]*slicehw.KillRecord, instChunk)
	for i := range insts {
		d := &insts[i]
		w := waiterSlots * i
		d.waiters = waiters[w : w : w+waiterSlots]
		d.KillRecs = recs[i : i : i+1]
	}
	return insts
}

// scrub resets a recycled instruction while keeping the KillRecs and
// waiters backing arrays for reuse. Only [:len] of each slice is cleared:
// scrub is the only site that shortens KillRecs, and wakeWaiters clears
// the slots it drops first, so [len:cap] is already zero and the pool pins
// no correlator record beyond the instruction's next use. CheckInvariants
// verifies that tail for every pooled instruction.
//
// Resetting is selective: a full-struct copy (`*d = DynInst{...}`) was the
// hottest single line of the cycle loop, and most fields don't need it.
// Fields fetchOne assigns unconditionally before anything can read them —
// Thread, Static, row, PC, Seq, FetchCycle, Out, HistAfter, PathAfter,
// RASAfter, LoopAfter — keep their stale values through allocation. The
// completion timestamp (CompleteCycle) and the undo-log payloads (undoReg*, undoMem* other than the valid bits) are
// read only behind flags that are reset here or freshly written, and
// every instRef additionally validates Seq, so they stay stale too.
// Everything conditionally written in a lifetime is reset below; the
// snapshot-determinism tests and the harness goldens guard the contract.
func (d *DynInst) scrub() {
	clear(d.KillRecs)
	clear(d.waiters)
	d.KillRecs, d.waiters = d.KillRecs[:0], d.waiters[:0]

	d.PredTaken, d.PredTarget = false, 0
	d.NoTargetPred, d.Mispredicted = false, false
	d.HistBefore, d.PathBefore = 0, 0
	d.UsedPred, d.UsedOverride = slicehw.PredRef{}, false
	d.AllocPred = slicehw.PredRef{}
	d.undoRegValid, d.undoMemValid = false, false
	d.prevWriter = instRef{}
	d.waitCount, d.inReady = 0, false
	d.Dispatched, d.Issued, d.Completed, d.Squashed, d.Retired = false, false, false, false, false
	d.PerfectLoad, d.forwarded = false, false
	d.MemResult = cache.Result{}
}

// releaseRetired returns a retired instruction to the pool, first
// clearing the consumer handle its prediction holds on it.
func (c *Core) releaseRetired(d *DynInst) {
	if p := d.Thread.prog; p.corr != nil {
		p.corr.DropConsumer(d.UsedPred, d)
	}
	c.pool = append(c.pool, d)
}
