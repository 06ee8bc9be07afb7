package cpu

// Completion calendar. Instructions are filed under their completion cycle
// at issue, so completeStage visits only the entries due now instead of
// re-scanning every ROB entry of every thread each cycle (the scan was
// ~O(window) per cycle and the single largest flat cost of the loop after
// PR 3).
//
// The ring has calBuckets slots indexed by CompleteCycle&calMask. A
// completion farther than calBuckets cycles out wraps onto an earlier
// visit; the pop re-files it (same bucket index) until its cycle actually
// arrives. Latencies are almost always far below the ring size, so
// re-files are rare.
//
// Entries are instRefs (pool.go), never removed at squash: the pop drops
// every entry whose instruction was squashed or recycled since filing.

const (
	calBuckets = 2048 // power of two
	calMask    = calBuckets - 1
)

// newCalendar carves every bucket from one backing array, slots entries
// per bucket, so a fresh or restored core pays one allocation instead of
// growing each bucket separately. A bucket that outgrows its slots
// reallocates alone: the full slice expression caps each bucket at its
// own region, so an append can never spill into its neighbour.
func newCalendar(slots int) [][]instRef {
	cal := make([][]instRef, calBuckets)
	backing := make([]instRef, calBuckets*slots)
	for i := range cal {
		lo := i * slots
		cal[i] = backing[lo : lo : lo+slots]
	}
	return cal
}

// calFile files an instruction for completion; call after CompleteCycle is
// set at issue. Completion times are always in the future (every latency
// is >= 1), so the bucket cannot be the one completeStage is draining.
func (c *Core) calFile(di *DynInst) {
	b := di.CompleteCycle & calMask
	c.cal[b] = append(c.cal[b], di.ref())
}

// calDrain pops the bucket due this cycle into the seq-ordered done list,
// keeping wrapped far-future entries in place.
func (c *Core) calDrain(done []instRef) []instRef {
	b := c.now & calMask
	entries := c.cal[b]
	if len(entries) == 0 {
		return done
	}
	kept := 0
	for _, e := range entries {
		di := e.live()
		if di == nil || di.Completed {
			continue // squashed or recycled since filing
		}
		if di.CompleteCycle > c.now {
			entries[kept] = e // ring wrap: not due for another k*calBuckets
			kept++
			continue
		}
		done = insertBySeq(done, e)
	}
	clear(entries[kept:])
	c.cal[b] = entries[:kept]
	return done
}
