package slicehw

import (
	"math/rand"
	"testing"
)

// TestFuzzCorrelatorInvariants drives the correlator with random but
// legally-shaped operation sequences — allocations, fills, lookups, kills,
// undo of any of them in reverse order, in-order commit, and helper
// reaping — and checks the structural invariants the CPU relies on after
// every operation. Across the fixed seeds the pools must actually recycle:
// kill records consumed by UndoKill and predictions whose use was undone
// come back off the free lists and pass CheckInvariants again.
func TestFuzzCorrelatorInvariants(t *testing.T) {
	var total fuzzCoverage
	for seed := int64(0); seed < 40; seed++ {
		total.add(runCorrelatorInvariants(t, seed))
	}
	if total.undoKills == 0 || total.undoUses == 0 || total.reusedRecs == 0 ||
		total.reusedPreds == 0 || total.reusedInsts == 0 {
		t.Fatalf("seeds never exercised kill → squash → undo → reuse: %+v", total)
	}
}

// reuseSeeds are PRNG seeds whose single run drives the whole recycling
// chain: a kill undone by a squash, a use undone by a squash, and kill
// records, predictions and instances later taken back off the free lists
// (TestReuseSeedsCoverRecycling keeps them honest).
var reuseSeeds = []int64{8, 12, 17, 20}

// TestReuseSeedsCoverRecycling pins the fuzz corpus's recycling seeds.
func TestReuseSeedsCoverRecycling(t *testing.T) {
	for _, seed := range reuseSeeds {
		if cov := runCorrelatorInvariants(t, seed); !cov.fullChain() {
			t.Errorf("seed %d no longer drives the recycling chain: %+v", seed, cov)
		}
	}
}

// FuzzCorrelatorInvariants is the native-fuzzing entry for the same
// driver: the corpus is the PRNG seed, so `go test -fuzz` explores
// operation sequences beyond the fixed test seeds.
func FuzzCorrelatorInvariants(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	for _, seed := range reuseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { runCorrelatorInvariants(t, seed) })
}

// fuzzCoverage counts the recycling paths one run exercised.
type fuzzCoverage struct {
	undoKills, undoUses                  int
	reusedRecs, reusedPreds, reusedInsts int
}

func (a *fuzzCoverage) add(b fuzzCoverage) {
	a.undoKills += b.undoKills
	a.undoUses += b.undoUses
	a.reusedRecs += b.reusedRecs
	a.reusedPreds += b.reusedPreds
	a.reusedInsts += b.reusedInsts
}

func (a fuzzCoverage) fullChain() bool {
	return a.undoKills > 0 && a.undoUses > 0 && a.reusedRecs > 0 && a.reusedPreds > 0 && a.reusedInsts > 0
}

// runCorrelatorInvariants models the CPU's protocol: the action stack is
// the in-flight window in fetch order, a squash undoes a suffix youngest
// first, a commit retires a prefix oldest first, each kill record is
// consumed exactly once (committed or undone), and a consumer is dropped
// when its branch retires. References are never released: fills go to
// any prediction a helper ever allocated, dead references included.
func runCorrelatorInvariants(t testing.TB, seed int64) fuzzCoverage {
	const branchA, branchB = 0x2000, 0x2020
	rng := rand.New(rand.NewSource(seed))
	s := &Slice{
		Name:    "fuzz",
		ForkPC:  0x1000,
		SlicePC: 0x100000,
		PGIs: []PGI{
			{SlicePC: 0x100010, BranchPC: branchA},
			{SlicePC: 0x100014, BranchPC: branchB},
		},
		LoopKillPC:  0x3000,
		SliceKillPC: 0x3004,
	}
	c := NewCorrelator(8)

	// helper is one helper context and every prediction it allocated.
	type helper struct {
		inst  InstRef
		preds []PredRef
		alive bool
	}
	type undoable struct {
		kind     string
		pred     PredRef
		rec      *KillRecord
		h        *helper
		consumer int
	}
	var stack []undoable
	var helpers []*helper // alive helpers
	var cov fuzzCoverage

	dropHelper := func(h *helper) {
		h.alive = false
		for k, x := range helpers {
			if x == h {
				helpers = append(helpers[:k], helpers[k+1:]...)
				break
			}
		}
	}
	randBranch := func() uint64 {
		if rng.Intn(2) == 0 {
			return branchB
		}
		return branchA
	}

	for op := 0; op < 400; op++ {
		freeRecs, freePreds, freeInsts := len(c.freeRecs), len(c.freePreds), len(c.freeInsts)
		switch rng.Intn(12) {
		case 0, 1: // fork
			h := &helper{inst: c.NewInstance(s), alive: true}
			helpers = append(helpers, h)
			stack = append(stack, undoable{kind: "fork", h: h})
			if len(c.freeInsts) < freeInsts {
				cov.reusedInsts++
			}
		case 2, 3: // allocate
			if len(helpers) == 0 {
				continue
			}
			h := helpers[rng.Intn(len(helpers))]
			if p := c.Allocate(h.inst, randBranch()); p != (PredRef{}) {
				h.preds = append(h.preds, p)
				stack = append(stack, undoable{kind: "alloc", pred: p})
				if len(c.freePreds) < freePreds {
					cov.reusedPreds++
				}
			}
		case 4: // fill a random prediction a live helper allocated
			if len(helpers) == 0 {
				continue
			}
			h := helpers[rng.Intn(len(helpers))]
			if len(h.preds) > 0 {
				c.Fill(h.preds[rng.Intn(len(h.preds))], rng.Intn(2) == 0)
			}
		case 5: // lookup
			r, _, override := c.Lookup(randBranch(), rng.Intn(2) == 0, op)
			if p := r.Live(); p != nil {
				if p.Killed {
					t.Fatalf("seed %d: matched a killed entry", seed)
				}
				if override && !p.Filled {
					t.Fatalf("seed %d: override from an unfilled entry", seed)
				}
				stack = append(stack, undoable{kind: "use", pred: r, consumer: op})
			}
		case 6: // loop kill
			if rec := c.KillLoop(s); rec != nil {
				stack = append(stack, undoable{kind: "kill", rec: rec})
				if len(c.freeRecs) < freeRecs {
					cov.reusedRecs++
				}
			}
		case 7: // slice kill
			if rec := c.KillSlice(s); rec != nil {
				stack = append(stack, undoable{kind: "kill", rec: rec})
				if len(c.freeRecs) < freeRecs {
					cov.reusedRecs++
				}
			}
		case 8, 9: // squash: undo a random suffix of the window
			if len(stack) == 0 {
				continue
			}
			n := 1 + rng.Intn(len(stack))
			for i := 0; i < n; i++ {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				switch u.kind {
				case "fork":
					// A reaped helper is not squashed again (the CPU's
					// squashHelper skips dead contexts).
					if u.h.alive {
						c.RemoveInstance(u.h.inst)
						dropHelper(u.h)
					}
				case "alloc":
					c.UndoAllocate(u.pred)
				case "use":
					c.UndoUse(u.pred)
					cov.undoUses++
				case "kill":
					c.UndoKill(u.rec)
					cov.undoKills++
				}
			}
		case 10: // commit: retire a random prefix of the window
			if len(stack) == 0 {
				continue
			}
			n := 1 + rng.Intn(len(stack))
			for _, u := range stack[:n] {
				switch u.kind {
				case "use":
					c.DropConsumer(u.pred, u.consumer)
				case "kill":
					c.CommitKill(u.rec)
				}
			}
			stack = append(stack[:0], stack[n:]...)
		case 11: // reap a helper whose fork has committed
			for _, h := range helpers {
				forkInFlight := false
				for _, u := range stack {
					if u.kind == "fork" && u.h == h {
						forkInFlight = true
						break
					}
				}
				if !forkInFlight {
					dropHelper(h)
					break
				}
			}
		}

		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("seed %d, op %d: %v", seed, op, err)
		}
		for _, bpc := range []uint64{branchA, branchB} {
			if c.PendingFor(bpc) > c.QueueLen(bpc) {
				t.Fatal("pending exceeds queue length")
			}
		}
	}

	// Drain: kill everything, then tear down every live helper (the
	// squash-time cleanup); the queues must empty.
	for c.KillSlice(s) != nil {
	}
	for _, h := range append([]*helper(nil), helpers...) {
		c.RemoveInstance(h.inst)
		dropHelper(h)
	}
	if c.PendingFor(branchA) != 0 || c.PendingFor(branchB) != 0 {
		t.Fatalf("seed %d: pending entries after teardown", seed)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("seed %d, after teardown: %v", seed, err)
	}
	return cov
}
