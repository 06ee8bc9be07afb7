package cpu

// Incremental issue scheduler. Readiness bookkeeping happens where state
// changes — subscription at fetch, wakeup at producer completion and store
// issue, insertion at dispatch — so issueStage walks a small, already
// seq-ordered ready list instead of scanning the whole window and
// allocating a sort closure every cycle.
//
// An instruction's waitCount is the number of outstanding wakeups it needs
// before it can issue: one per in-flight register producer plus, for
// main-thread loads, one per older unissued store at fetch time
// (conservative "real" disambiguation, exactly the set the old per-cycle
// ready() scan re-derived). It enters the ready list when it is
// dispatched and the count is zero.
//
// Squash removes nothing here. Waiter lists and the ready list hold
// instRefs (pool.go), and a squashed or recycled entry is dropped when its
// producer wakes or when issueStage walks past it. A squashed subscriber's
// producer is older than it and in the same thread, so the producer
// outlives the subscription.

// subscribe makes di wait for w: for w's completion when w is a register
// producer, for w's issue (address generation) when w is a store.
func (c *Core) subscribe(di, w *DynInst) {
	di.waitCount++
	w.waiters = append(w.waiters, di.ref())
}

// wakeWaiters satisfies d's live subscribers. A register producer calls
// it at completion, which runs before issue in the cycle loop, so a
// dependent woken here can issue this same cycle — matching the old
// scan's "producer has completed by now" test. A store calls it at issue:
// the old scan evaluated readiness before any instruction issued, so a
// load blocked only on this store could not issue until the next cycle,
// and insertion is deferred (storeWoken) to the end of issueStage. Stores
// reach it again at completion with an empty list.
func (c *Core) wakeWaiters(d *DynInst) {
	store := d.Static.IsStore()
	for i, r := range d.waiters {
		d.waiters[i] = instRef{}
		w := r.live()
		if w == nil {
			continue
		}
		w.waitCount--
		if w.waitCount == 0 && w.Dispatched && !w.Issued {
			if store {
				c.storeWoken = append(c.storeWoken, w)
			} else {
				c.readyInsert(w)
			}
		}
	}
	d.waiters = d.waiters[:0]
}

// readyInsert adds di to the seq-ordered ready list.
func (c *Core) readyInsert(di *DynInst) {
	if di.inReady {
		return
	}
	di.inReady = true
	c.ready = insertBySeq(c.ready, di.ref())
}

// insertBySeq inserts r into a list sorted by stored seq, preserving
// order. Dead entries keep their stored seq, so they never disturb it.
func insertBySeq(list []instRef, r instRef) []instRef {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].seq < r.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	list = append(list, instRef{})
	copy(list[lo+1:], list[lo:])
	list[lo] = r
	return list
}
