package slicehw

// This file implements the prediction correlator of §5 (Figure 10). Each
// problem branch owns a queue of prediction entries. Entries are allocated
// when a PGI is fetched (Empty), filled when it executes (Full), matched to
// main-thread branch instances at fetch, and deallocated only by kills —
// main-thread instructions whose fetch proves the intended branch instance
// can no longer be reached. Every mutation returns an undo handle the CPU
// attaches to the acting instruction so a squash restores the correlator
// exactly (§5.2), and a prediction arriving after its branch was fetched is
// handled as a late prediction with optional early resolution (§5.3).
//
// Pooling. Instances, their predictions and kill records are recycled
// through per-correlator free lists under the rule the CPU's DynInst pool
// follows: every reference into a recycled object carries the ID it was
// taken at, and reads dead once the object is recycled.
//
//   - An instance's ID comes from nextID, which never resets and travels
//     in checkpoints. The helper context's InstRef, a PGI's or a branch's
//     PredRef, and a kill record's references all carry their instance's
//     ID. A prediction belongs to exactly one instance, so its reference
//     is checked by that instance's ID.
//   - An instance and every prediction it allocated are recycled the
//     moment the instance is detached (off its slice's live list, so no
//     queue can reach it): its fork was squashed (RemoveInstance), or the
//     slice kill that finished it retired (CommitKill).
//   - A dead reference does nothing: it reads Done, and every operation
//     on a dead PredRef is ignored, as one on a removed entry is.
//   - A kill record is recycled the moment CommitKill or UndoKill consumes
//     it; its owner consumes it exactly once.
//
// Only the Consumer back-reference into the CPU is released by hand
// (DropConsumer, UndoUse). CheckInvariants verifies that nothing
// reachable sits on a free list.

import (
	"slices"

	"repro/internal/stats"
)

// PredState is the lifecycle state of Figure 10's per-prediction "state".
type PredState uint8

// Prediction states.
const (
	PredEmpty PredState = iota // allocated at PGI fetch, value pending
	PredFull                   // value computed, unconsumed
	PredLate                   // consumed while Empty; value still pending
)

// Pred is one prediction entry.
type Pred struct {
	BranchPC uint64
	// Filled/Dir: the computed prediction once the PGI executes.
	Filled bool
	Dir    bool
	// Used/UsedDir: set when a fetched branch instance matched this
	// entry; UsedDir is the direction that instance actually fetched
	// with (the slice's direction when Full, the conventional
	// predictor's when Empty/Late).
	Used    bool
	UsedDir bool
	// Consumer is CPU-owned context for the matched branch (the VN# field
	// of Figure 10; the CPU stores its dynamic instruction handle here).
	Consumer any
	// Killed marks the entry dead pending the killer's retirement.
	Killed bool

	inst    *Instance
	removed bool
}

// State derives the Figure 10 state field.
func (p *Pred) State() PredState {
	switch {
	case p.Used && !p.Filled:
		return PredLate
	case p.Filled:
		return PredFull
	default:
		return PredEmpty
	}
}

// Instance is one dynamic activation of a slice (one fork).
type Instance struct {
	ID    uint64
	Slice *Slice
	// skipLoopKill counts pending first-instance loop-kill exemptions.
	skipLoopKill int
	// skipSliceKill counts pending slice-kill exemptions (slices hoisted
	// one outer iteration ahead survive the first slice kill they see).
	skipSliceKill int
	entries       []*Pred
	finished      bool
}

// InstRef references an instance by pointer and by the ID it carried when
// the reference was taken. The zero InstRef is dead.
type InstRef struct {
	inst *Instance
	id   uint64
}

func (i *Instance) ref() InstRef { return InstRef{i, i.ID} }

// live returns the referenced instance, or nil once it was recycled.
func (r InstRef) live() *Instance {
	if i := r.inst; i != nil && i.ID == r.id {
		return i
	}
	return nil
}

// Done reports whether the instance can no longer contribute predictions
// (its slice kill fired, or its fork was squashed and it was recycled). A
// helper thread whose instance is done terminates at its next PGI:
// predictions allocated after the slice kill would mis-align the queue
// against future instances.
func (r InstRef) Done() bool {
	i := r.live()
	return i == nil || i.finished
}

// PredRef references a prediction by pointer and by its instance's ID.
// The zero PredRef is dead.
type PredRef struct {
	p  *Pred
	id uint64
}

func (p *Pred) ref() PredRef { return PredRef{p, p.inst.ID} }

// Live returns the referenced prediction, or nil once its instance was
// recycled. The CPU reads a prediction only through its reference.
func (r PredRef) Live() *Pred {
	if p := r.p; p != nil && p.inst != nil && p.inst.ID == r.id {
		return p
	}
	return nil
}

// queued returns the referenced prediction while it still sits in its
// queue: live and neither undone nor deallocated.
func (r PredRef) queued() *Pred {
	if p := r.Live(); p != nil && !p.removed {
		return p
	}
	return nil
}

type queue struct {
	branchPC uint64
	entries  []*Pred
}

// CorrStats counts correlator events for Table 4. The definition lives in
// the telemetry package so stats.Snapshot can embed it; the alias keeps
// the established name.
type CorrStats = stats.CorrStats

// Correlator is the branch-queue array of Figure 10.
type Correlator struct {
	queues       map[uint64]*queue
	maxPerBranch int
	liveBySlice  map[*Slice][]*Instance
	nextID       uint64

	// Free lists (see Pooling above).
	freeInsts []*Instance
	freePreds []*Pred
	freeRecs  []*KillRecord

	// Tracer, when non-nil, receives one typed event per correlator
	// mutation. The correlator has no clock: events leave with Cycle 0 and
	// the CPU wraps the tracer to stamp the current cycle.
	Tracer stats.Tracer

	Stats CorrStats
}

func (c *Correlator) emit(e stats.Event) {
	if c.Tracer != nil {
		c.Tracer.Emit(e)
	}
}

func dirString(taken bool) string {
	if taken {
		return "taken"
	}
	return "not-taken"
}

// NewCorrelator builds a correlator allowing maxPerBranch in-flight
// predictions per problem branch (8 in Figure 10).
func NewCorrelator(maxPerBranch int) *Correlator {
	return &Correlator{
		queues:       make(map[uint64]*queue),
		maxPerBranch: maxPerBranch,
		liveBySlice:  make(map[*Slice][]*Instance),
	}
}

func (c *Correlator) queueFor(branchPC uint64) *queue {
	q := c.queues[branchPC]
	if q == nil {
		q = &queue{branchPC: branchPC}
		c.queues[branchPC] = q
	}
	return q
}

// NewInstance registers a fork of s and returns the reference the helper
// context that runs it keeps.
func (c *Correlator) NewInstance(s *Slice) InstRef {
	c.nextID++
	inst := pop(&c.freeInsts)
	if inst == nil {
		inst = &Instance{}
	}
	inst.ID, inst.Slice = c.nextID, s
	if s.LoopKillSkipFirst {
		inst.skipLoopKill = 1
	}
	if s.SliceKillSkipFirst {
		inst.skipSliceKill = 1
	}
	c.liveBySlice[s] = append(c.liveBySlice[s], inst)
	c.emit(stats.Event{Kind: stats.EvInstance, Slice: s.Index, Inst: int(inst.ID)})
	return inst.ref()
}

// RemoveInstance tears an instance down (its fork was squashed): all its
// entries leave their queues and it is recycled, so every reference to it
// reads dead. A dead reference removes nothing.
func (c *Correlator) RemoveInstance(r InstRef) {
	inst := r.live()
	if inst == nil {
		return
	}
	c.Stats.InstanceDrops++
	c.emit(stats.Event{Kind: stats.EvInstanceDrop, Slice: inst.Slice.Index, Inst: int(inst.ID)})
	for _, p := range inst.entries {
		c.removePred(p)
	}
	c.detach(inst)
}

// detach drops inst from its slice's live list — after which no queue
// holds its predictions — and recycles it with every prediction it
// allocated.
func (c *Correlator) detach(inst *Instance) {
	live := c.liveBySlice[inst.Slice]
	if i := slices.Index(live, inst); i >= 0 {
		// slices.Delete nils the vacated slot, so the shortened list's
		// backing array pins nothing.
		c.liveBySlice[inst.Slice] = slices.Delete(live, i, i+1)
	}
	for _, p := range inst.entries {
		*p = Pred{}
		c.freePreds = append(c.freePreds, p)
	}
	clear(inst.entries)
	*inst = Instance{entries: inst.entries[:0]}
	c.freeInsts = append(c.freeInsts, inst)
}

func (c *Correlator) removePred(p *Pred) {
	if p.removed {
		return
	}
	p.removed = true
	q := c.queues[p.BranchPC]
	if q == nil {
		return
	}
	if i := slices.Index(q.entries, p); i >= 0 {
		q.entries = slices.Delete(q.entries, i, i+1)
	}
}

// CanAllocate reports whether branchPC's queue has room. The CPU stalls a
// helper thread's fetch at a PGI whose queue is full instead of dropping
// the prediction — a drop would permanently misalign the queue against
// the branch instances it is meant to cover.
func (c *Correlator) CanAllocate(branchPC uint64) bool {
	q := c.queues[branchPC]
	return q == nil || len(q.entries) < c.maxPerBranch
}

// Allocate creates an Empty entry for branchPC on behalf of the instance
// r names (PGI fetch). It returns the zero PredRef when the branch queue
// is full or the instance is done; the prediction is then simply dropped,
// like a CAM allocation failure in hardware.
func (c *Correlator) Allocate(r InstRef, branchPC uint64) PredRef {
	if r.Done() {
		return PredRef{}
	}
	inst := r.inst
	q := c.queueFor(branchPC)
	if len(q.entries) >= c.maxPerBranch {
		c.Stats.QueueFull++
		return PredRef{}
	}
	p := pop(&c.freePreds)
	if p == nil {
		p = &Pred{}
	}
	p.BranchPC, p.inst = branchPC, inst
	q.entries = append(q.entries, p)
	inst.entries = append(inst.entries, p)
	c.Stats.Generated++
	c.emit(stats.Event{Kind: stats.EvPredAlloc, PC: branchPC, Slice: inst.Slice.Index,
		Inst: int(inst.ID), N: uint64(len(q.entries))})
	return p.ref()
}

// UndoAllocate reverses Allocate (the PGI's fetch was squashed).
func (c *Correlator) UndoAllocate(r PredRef) {
	p := r.Live()
	if p == nil {
		return
	}
	c.Stats.UndoneAllocs++
	c.emit(stats.Event{Kind: stats.EvUndoAlloc, PC: p.BranchPC, Slice: p.inst.Slice.Index, Inst: int(p.inst.ID)})
	c.removePred(p)
}

// FillResult reports what a Fill did.
type FillResult struct {
	// Applied reports whether the entry was actually filled (false when
	// the prediction had already been removed or recycled, e.g. by a fork
	// squash).
	Applied bool
	// LateMismatch: the entry had already been consumed with the opposite
	// direction; the CPU should redirect the consumer if it is still
	// unresolved (early resolution, §5.3).
	LateMismatch bool
	// Consumer echoes the consuming branch's CPU handle for redirects.
	Consumer any
}

// Fill delivers the PGI's computed direction.
func (c *Correlator) Fill(r PredRef, dir bool) FillResult {
	p := r.queued()
	if p == nil {
		return FillResult{}
	}
	p.Filled = true
	p.Dir = dir
	c.Stats.Filled++
	c.emit(stats.Event{Kind: stats.EvPredGenerate, PC: p.BranchPC, Slice: p.inst.Slice.Index,
		Inst: int(p.inst.ID), Dir: dirString(dir)})
	// A kill only stops future matching; an already-consumed entry still
	// names its consumer, and a late value that contradicts the fetched
	// direction can resolve that branch early (§5.3).
	if p.Used && p.UsedDir != dir {
		c.Stats.LateMismatch++
		return FillResult{Applied: true, LateMismatch: true, Consumer: p.Consumer}
	}
	return FillResult{Applied: true}
}

// Lookup matches a fetched main-thread branch at branchPC against the
// queue. fallbackDir is what the conventional predictor says; consumer is
// the CPU's handle for the branch instance.
//
// It returns the matched entry (the zero PredRef if none), the direction
// the fetch should use, and whether the correlator overrode the
// conventional predictor.
func (c *Correlator) Lookup(branchPC uint64, fallbackDir bool, consumer any) (p PredRef, dir bool, override bool) {
	q := c.queues[branchPC]
	if q == nil {
		return PredRef{}, fallbackDir, false
	}
	for _, e := range q.entries {
		if e.Killed || e.Used {
			continue
		}
		// Only the oldest live instance's predictions are current: the
		// slice kills retire exactly one instance per covered iteration,
		// so a younger instance's entries belong to a future iteration.
		// Without this check, an instance that allocated only a prefix of
		// its PGIs before its slice kill fired would leave the remaining
		// queues permanently off by one.
		if e.inst != c.oldestLive(e.inst.Slice) {
			continue
		}
		e.Used = true
		e.Consumer = consumer
		if e.Filled {
			e.UsedDir = e.Dir
			c.Stats.Overrides++
			c.emit(stats.Event{Kind: stats.EvPredBind, PC: branchPC, Slice: e.inst.Slice.Index,
				Inst: int(e.inst.ID), Dir: dirString(e.Dir), Level: "full"})
			c.emit(stats.Event{Kind: stats.EvOverride, PC: branchPC, Slice: e.inst.Slice.Index,
				Inst: int(e.inst.ID), Dir: dirString(e.Dir)})
			return e.ref(), e.Dir, true
		}
		// Empty → Late: the branch proceeds with the conventional
		// prediction; the PGI may still resolve it early.
		e.UsedDir = fallbackDir
		c.Stats.LateMatches++
		c.emit(stats.Event{Kind: stats.EvPredBind, PC: branchPC, Slice: e.inst.Slice.Index,
			Inst: int(e.inst.ID), Dir: dirString(fallbackDir), Level: "late"})
		return e.ref(), fallbackDir, false
	}
	return PredRef{}, fallbackDir, false
}

// UndoUse reverses a Lookup match (the consuming branch was squashed).
func (c *Correlator) UndoUse(r PredRef) {
	p := r.queued()
	if p == nil {
		return
	}
	p.Used = false
	p.Consumer = nil
	c.Stats.UndoneUses++
	c.emit(stats.Event{Kind: stats.EvUndoBind, PC: p.BranchPC, Slice: p.inst.Slice.Index, Inst: int(p.inst.ID)})
}

// DropConsumer clears the CPU's handle once the consuming branch has
// retired: the branch resolved on the committed path, so a late fill can
// no longer redirect it, and the CPU is free to recycle the handle. The
// identity check keeps a stale call from clearing a newer binding.
func (c *Correlator) DropConsumer(r PredRef, consumer any) {
	if p := r.Live(); p != nil && p.Consumer == consumer {
		p.Consumer = nil
	}
}

// RedirectUse updates the used direction after an early resolution flipped
// the consumer's fetch direction.
func (c *Correlator) RedirectUse(r PredRef, dir bool) {
	if p := r.queued(); p != nil {
		p.UsedDir = dir
	}
}

// KillRecord captures everything one kill instruction did, for exact undo.
// Its references carry instance IDs like every other; CommitKill or
// UndoKill consumes it and returns it to the free list.
type KillRecord struct {
	Preds []PredRef // entries this kill marked
	// skipInst is the instance whose first-iteration exemption this kill
	// consumed (the zero InstRef if none).
	skipInst InstRef
	// skipSliceInsts are instances whose slice-kill exemption this kill
	// consumed.
	skipSliceInsts []InstRef
	// finishedInsts are the instances a slice kill retired (empty for
	// loop kills).
	finishedInsts []InstRef
	slice         *Slice
}

// oldestLive returns the oldest unfinished instance of s.
func (c *Correlator) oldestLive(s *Slice) *Instance {
	for _, inst := range c.liveBySlice[s] {
		if !inst.finished {
			return inst
		}
	}
	return nil
}

// KillLoop performs a loop-iteration kill for slice s: the oldest alive
// entry in each queue the slice covers is marked killed. Returns nil when
// the kill had no effect.
func (c *Correlator) KillLoop(s *Slice) *KillRecord {
	inst := c.oldestLive(s)
	if inst == nil {
		c.Stats.KillNoTarget++
		return nil
	}
	if inst.skipLoopKill > 0 {
		inst.skipLoopKill--
		rec := c.newRecord(s)
		rec.skipInst = inst.ref()
		return rec
	}
	rec := c.newRecord(s)
	for _, bpc := range s.CoveredBranchPCs() {
		q := c.queues[bpc]
		if q == nil {
			continue
		}
		// Kill the oldest live instance's first alive entry. Queue order
		// alone is not enough: allocations from concurrently running
		// helper instances interleave, so the FIFO head may belong to a
		// younger instance whose iteration has not started yet.
		for _, e := range q.entries {
			if !e.Killed && e.inst == inst {
				e.Killed = true
				rec.Preds = append(rec.Preds, e.ref())
				c.Stats.LoopKills++
				c.emit(stats.Event{Kind: stats.EvPredKill, PC: bpc, Slice: inst.Slice.Index,
					Inst: int(inst.ID), Level: "loop"})
				break
			}
		}
	}
	if len(rec.Preds) == 0 {
		c.Stats.KillNoTarget++
		c.freeRecord(rec)
		return nil
	}
	return rec
}

// KillSlice performs a slice kill: the covered region is over for *every*
// live instance of s — all of them were forked before this kill in fetch
// order — so all are finished and their alive entries killed. Instances
// holding a SliceKillSkipFirst exemption (hoisted one outer iteration
// ahead) are spared once. Finishing every live instance is what lets the
// correlator re-align itself after squash/replay churn leaves a backlog.
func (c *Correlator) KillSlice(s *Slice) *KillRecord {
	rec := c.newRecord(s)
	for _, inst := range c.liveBySlice[s] {
		if inst.finished {
			continue
		}
		if inst.skipSliceKill > 0 {
			inst.skipSliceKill--
			rec.skipSliceInsts = append(rec.skipSliceInsts, inst.ref())
			c.emit(stats.Event{Kind: stats.EvKillSkip, Slice: s.Index, Inst: int(inst.ID), Level: "slice"})
			continue
		}
		inst.finished = true
		rec.finishedInsts = append(rec.finishedInsts, inst.ref())
		c.emit(stats.Event{Kind: stats.EvPredKill, Slice: s.Index, Inst: int(inst.ID),
			Level: "slice", N: uint64(len(inst.entries))})
		for _, e := range inst.entries {
			if !e.Killed && !e.removed {
				e.Killed = true
				rec.Preds = append(rec.Preds, e.ref())
				c.Stats.SliceKills++
			}
		}
	}
	if len(rec.finishedInsts) == 0 && len(rec.skipSliceInsts) == 0 {
		c.Stats.KillNoTarget++
		c.freeRecord(rec)
		return nil
	}
	return rec
}

// newRecord takes an empty kill record for slice s off the free list.
func (c *Correlator) newRecord(s *Slice) *KillRecord {
	rec := pop(&c.freeRecs)
	if rec == nil {
		rec = &KillRecord{}
	}
	rec.slice = s
	return rec
}

// pop takes the most recently freed object off a free list, or returns
// nil when the list is empty. The vacated slot is nil'd so the list pins
// nothing it no longer holds.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
}

// freeRecord scrubs a consumed record, keeping its slices' backing arrays,
// and returns it to the free list.
func (c *Correlator) freeRecord(rec *KillRecord) {
	clear(rec.Preds)
	clear(rec.skipSliceInsts)
	clear(rec.finishedInsts)
	*rec = KillRecord{
		Preds:          rec.Preds[:0],
		skipSliceInsts: rec.skipSliceInsts[:0],
		finishedInsts:  rec.finishedInsts[:0],
	}
	c.freeRecs = append(c.freeRecs, rec)
}

// UndoKill reverses a kill record (the killer was squashed) and recycles
// it: the caller must not use rec afterwards. Dead references in it
// restore nothing.
func (c *Correlator) UndoKill(rec *KillRecord) {
	if rec == nil {
		return
	}
	for _, r := range rec.Preds {
		if p := r.Live(); p != nil {
			p.Killed = false
			c.Stats.UndoneKills++
		}
	}
	if inst := rec.skipInst.live(); inst != nil {
		inst.skipLoopKill++
	}
	for _, r := range rec.skipSliceInsts {
		if inst := r.live(); inst != nil {
			inst.skipSliceKill++
		}
	}
	for _, r := range rec.finishedInsts {
		if inst := r.live(); inst != nil {
			inst.finished = false
			c.emit(stats.Event{Kind: stats.EvUndoKill, Slice: rec.slice.Index, Inst: int(inst.ID), Level: "slice"})
		}
	}
	c.freeRecord(rec)
}

// CommitKill physically deallocates killed entries once the killer
// retires (predictions are "not deallocated until the kill instruction
// retires", §5.2), then recycles rec: the caller must not use it
// afterwards.
func (c *Correlator) CommitKill(rec *KillRecord) {
	if rec == nil {
		return
	}
	for _, r := range rec.Preds {
		if p := r.Live(); p != nil {
			c.removePred(p)
		}
	}
	for _, r := range rec.finishedInsts {
		// The instance's bookkeeping can go once its entries are gone.
		if inst := r.live(); inst != nil {
			c.detach(inst)
		}
	}
	c.freeRecord(rec)
}

// LiveInstances reports the unfinished instance count for slice s (tests
// and debugging).
func (c *Correlator) LiveInstances(s *Slice) int {
	n := 0
	for _, inst := range c.liveBySlice[s] {
		if !inst.finished {
			n++
		}
	}
	return n
}

// QueueLen reports the live entry count for a branch (tests).
func (c *Correlator) QueueLen(branchPC uint64) int {
	q := c.queues[branchPC]
	if q == nil {
		return 0
	}
	return len(q.entries)
}

// PendingFor reports how many unkilled, unconsumed predictions branchPC
// has (tests and debugging).
func (c *Correlator) PendingFor(branchPC uint64) int {
	q := c.queues[branchPC]
	if q == nil {
		return 0
	}
	n := 0
	for _, e := range q.entries {
		if !e.Killed && !e.Used {
			n++
		}
	}
	return n
}
