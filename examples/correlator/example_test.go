// Correlator replays the paper's Figure 9 on the prediction correlation
// hardware directly: a slice guesses a loop will run three times and
// generates predictions P1..P3 for a conditionally executed problem
// branch; the main thread's actual path is A B C F B C D F B G, so P1 must
// be killed by the first loop-iteration kill, P2 must be the one the
// branch uses, and the loop exit must kill the rest.
//
//	go test -run Example -v ./examples/correlator
package correlator

import (
	"fmt"

	"repro/internal/slicehw"
	"repro/internal/stats"
)

func Example() {
	const branchD = 0x2000
	s := &slicehw.Slice{
		Name:        "figure9",
		ForkPC:      0x1000,
		SlicePC:     0x100000,
		PGIs:        []slicehw.PGI{{SlicePC: 0x100010, BranchPC: branchD}},
		LoopKillPC:  0x2040, // block F, the loop back-edge
		SliceKillPC: 0x2080, // block G, the loop exit
	}
	c := slicehw.NewCorrelator(8)
	c.Tracer = stats.FuncTracer(func(e stats.Event) {
		fmt.Printf("  correlator: %-14s%s\n", e.Kind, e.Detail())
	})

	fmt.Println("fork: slice guesses three iterations, generates P1..P3")
	inst := c.NewInstance(s)
	p1 := c.Allocate(inst, branchD)
	p2 := c.Allocate(inst, branchD)
	p3 := c.Allocate(inst, branchD)
	c.Fill(p1, true)
	c.Fill(p2, false)
	c.Fill(p3, true)

	fmt.Println("\niteration 1: path B C F — the problem branch is skipped")
	fmt.Println("  block F fetched (loop-iteration kill): P1 dies unused")
	rec1 := c.KillLoop(s)
	fmt.Printf("  killed %d prediction(s)\n", len(rec1.Preds))

	fmt.Println("\niteration 2: path B C D F — the branch executes")
	_, dir, override := c.Lookup(branchD, true, "D2")
	fmt.Printf("  block D fetched: matched P2, override=%v, direction=%v (P2's value)\n", override, dir)
	rec2 := c.KillLoop(s)
	fmt.Printf("  block F fetched: killed %d prediction(s)\n", len(rec2.Preds))

	fmt.Println("\nloop exits: path B G — the slice kill fires")
	rec3 := c.KillSlice(s)
	fmt.Printf("  block G fetched: killed the remaining %d prediction(s)\n", len(rec3.Preds))
	fmt.Printf("\nqueue is empty: %d pending predictions remain\n", c.PendingFor(branchD))

	fmt.Println("\n--- mis-speculation recovery (§5.2) ---")
	fmt.Println("a kill performed on a squashed wrong path is undone exactly:")
	inst2 := c.NewInstance(s)
	q1 := c.Allocate(inst2, branchD)
	c.Fill(q1, true)
	rec := c.KillLoop(s) // wrong-path kill
	fmt.Printf("  wrong-path kill marked %d prediction(s)\n", len(rec.Preds))
	c.UndoKill(rec) // squash
	_, dir, override = c.Lookup(branchD, false, "replay")
	fmt.Printf("  after the squash, the replayed branch still matches: override=%v dir=%v\n", override, dir)

	// Output:
	// fork: slice guesses three iterations, generates P1..P3
	//   correlator: instance       slice=0 inst=1
	//   correlator: pred-alloc     pc=0x2000 slice=0 inst=1 n=1
	//   correlator: pred-alloc     pc=0x2000 slice=0 inst=1 n=2
	//   correlator: pred-alloc     pc=0x2000 slice=0 inst=1 n=3
	//   correlator: pred-generate  pc=0x2000 slice=0 inst=1 dir=taken
	//   correlator: pred-generate  pc=0x2000 slice=0 inst=1 dir=not-taken
	//   correlator: pred-generate  pc=0x2000 slice=0 inst=1 dir=taken
	//
	// iteration 1: path B C F — the problem branch is skipped
	//   block F fetched (loop-iteration kill): P1 dies unused
	//   correlator: pred-kill      pc=0x2000 slice=0 inst=1 level=loop
	//   killed 1 prediction(s)
	//
	// iteration 2: path B C D F — the branch executes
	//   correlator: pred-bind      pc=0x2000 slice=0 inst=1 dir=not-taken level=full
	//   correlator: override       pc=0x2000 slice=0 inst=1 dir=not-taken
	//   block D fetched: matched P2, override=true, direction=false (P2's value)
	//   correlator: pred-kill      pc=0x2000 slice=0 inst=1 level=loop
	//   block F fetched: killed 1 prediction(s)
	//
	// loop exits: path B G — the slice kill fires
	//   correlator: pred-kill      slice=0 inst=1 level=slice n=3
	//   block G fetched: killed the remaining 1 prediction(s)
	//
	// queue is empty: 0 pending predictions remain
	//
	// --- mis-speculation recovery (§5.2) ---
	// a kill performed on a squashed wrong path is undone exactly:
	//   correlator: instance       slice=0 inst=2
	//   correlator: pred-alloc     pc=0x2000 slice=0 inst=2 n=4
	//   correlator: pred-generate  pc=0x2000 slice=0 inst=2 dir=taken
	//   correlator: pred-kill      pc=0x2000 slice=0 inst=2 level=loop
	//   wrong-path kill marked 1 prediction(s)
	//   correlator: pred-bind      pc=0x2000 slice=0 inst=2 dir=taken level=full
	//   correlator: override       pc=0x2000 slice=0 inst=2 dir=taken
	//   after the squash, the replayed branch still matches: override=true dir=true
}
