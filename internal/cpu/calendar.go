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
// Entries are never removed at squash; instead each entry snapshots the
// instruction's Seq at filing time and the pop validates it. Seqs are
// globally unique and never reused, so a mismatch means the pooled DynInst
// was recycled into a different dynamic instruction; a match with Squashed
// set means it was squashed and still sits in the pool. Either way the
// entry is dead and dropped.

const (
	calBuckets = 2048 // power of two
	calMask    = calBuckets - 1
)

type calEntry struct {
	di  *DynInst
	seq uint64
}

// newCalendar carves every bucket from one backing array, slots entries
// per bucket, so a fresh or restored core pays one allocation instead of
// growing each bucket separately. A bucket that outgrows its slots
// reallocates alone: the full slice expression caps each bucket at its
// own region, so an append can never spill into its neighbour.
func newCalendar(slots int) [][]calEntry {
	cal := make([][]calEntry, calBuckets)
	backing := make([]calEntry, calBuckets*slots)
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
	c.cal[b] = append(c.cal[b], calEntry{di, di.Seq})
}

// calDrain pops the bucket due this cycle into the seq-ordered done list,
// keeping wrapped far-future entries in place.
func (c *Core) calDrain(done []*DynInst) []*DynInst {
	b := c.now & calMask
	entries := c.cal[b]
	if len(entries) == 0 {
		return done
	}
	kept := 0
	for _, e := range entries {
		di := e.di
		if di.Seq != e.seq || di.Squashed || di.Completed {
			continue // recycled or squashed since filing
		}
		if di.CompleteCycle > c.now {
			entries[kept] = e // ring wrap: not due for another k*calBuckets
			kept++
			continue
		}
		done = insertBySeq(done, di)
	}
	for i := kept; i < len(entries); i++ {
		entries[i] = calEntry{}
	}
	c.cal[b] = entries[:kept]
	return done
}
