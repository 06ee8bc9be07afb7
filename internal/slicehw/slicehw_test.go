package slicehw

import (
	"testing"

	"repro/internal/isa"
)

func testSlice() *Slice {
	return &Slice{
		Name:     "test",
		ForkPC:   0x1000,
		SlicePC:  0x100000,
		LiveIns:  []isa.Reg{isa.GP, 5},
		MaxLoops: 4,
		PGIs: []PGI{
			{SlicePC: 0x100010, BranchPC: 0x2000},
		},
		LoopKillPC:  0x2040,
		SliceKillPC: 0x2080,
	}
}

func TestTableLookups(t *testing.T) {
	s := testSlice()
	tbl := MustTable([]*Slice{s})
	if got := tbl.ForksAt(0x1000); len(got) != 1 || got[0] != s {
		t.Errorf("ForksAt = %v", got)
	}
	if got := tbl.ForksAt(0x1004); got != nil {
		t.Errorf("spurious fork at %v", got)
	}
	if got := tbl.LoopKillsAt(0x2040); len(got) != 1 {
		t.Errorf("LoopKillsAt = %v", got)
	}
	if got := tbl.SliceKillsAt(0x2080); len(got) != 1 {
		t.Errorf("SliceKillsAt = %v", got)
	}
	ref, ok := tbl.PGIAt(0x100010)
	if !ok || ref.Slice != s || ref.PGI.BranchPC != 0x2000 {
		t.Errorf("PGIAt = %+v ok=%v", ref, ok)
	}
	if _, ok := tbl.PGIAt(0x100014); ok {
		t.Error("spurious PGI")
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable([]*Slice{{Name: "bad"}}); err == nil {
		t.Error("slice without PCs accepted")
	}
	s1 := testSlice()
	s2 := testSlice()
	s2.ForkPC = 0x3000
	if _, err := NewTable([]*Slice{s1, s2}); err == nil {
		t.Error("duplicate PGI PC accepted")
	}
}

func TestSliceMetadata(t *testing.T) {
	s := testSlice()
	s.PGIs = append(s.PGIs, PGI{SlicePC: 0x100014, BranchPC: 0x2000}, PGI{SlicePC: 0x100018, BranchPC: 0x2020})
	covered := s.CoveredBranchPCs()
	if len(covered) != 2 || covered[0] != 0x2000 || covered[1] != 0x2020 {
		t.Errorf("covered = %#v", covered)
	}
	if s.KillCount() != 2 {
		t.Errorf("kills = %d", s.KillCount())
	}
}

// --- Correlator ---

func TestBasicPredictionFlow(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)

	p := c.Allocate(inst, 0x2000)
	if p.Live() == nil || p.Live().State() != PredEmpty {
		t.Fatalf("allocate = %+v", p)
	}
	c.Fill(p, true)
	if p.Live().State() != PredFull {
		t.Fatalf("state after fill = %v", p.Live().State())
	}
	got, dir, override := c.Lookup(0x2000, false, "branch1")
	if got != p || !dir || !override {
		t.Fatalf("lookup = %v dir=%v override=%v", got, dir, override)
	}
	if p.Live().Consumer != "branch1" {
		t.Errorf("consumer = %v", p.Live().Consumer)
	}
	// A second branch instance must not reuse the same prediction.
	got2, _, override2 := c.Lookup(0x2000, false, "branch2")
	if got2 != (PredRef{}) || override2 {
		t.Error("used prediction matched again")
	}
}

func TestLookupWithoutPredictions(t *testing.T) {
	c := NewCorrelator(8)
	p, dir, override := c.Lookup(0x9999, true, nil)
	if p != (PredRef{}) || !dir || override {
		t.Errorf("empty lookup = %v,%v,%v", p, dir, override)
	}
}

func TestFIFOOrderAcrossEntries(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p1 := c.Allocate(inst, 0x2000)
	p2 := c.Allocate(inst, 0x2000)
	c.Fill(p1, true)
	c.Fill(p2, false)
	_, dir, _ := c.Lookup(0x2000, false, 1)
	if !dir {
		t.Error("head prediction not used first")
	}
	_, dir, _ = c.Lookup(0x2000, true, 2)
	if dir {
		t.Error("second prediction out of order")
	}
}

func TestQueueCapacity(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(2)
	inst := c.NewInstance(s)
	if c.Allocate(inst, 0x2000) == (PredRef{}) || c.Allocate(inst, 0x2000) == (PredRef{}) {
		t.Fatal("allocation failed with space")
	}
	if c.Allocate(inst, 0x2000) != (PredRef{}) {
		t.Error("allocation above capacity succeeded")
	}
	if c.Stats.QueueFull != 1 {
		t.Errorf("QueueFull = %d", c.Stats.QueueFull)
	}
}

// TestFigure9Scenario walks the paper's Figure 9(b): the slice guesses the
// loop runs three times and generates P1..P3 for the problem branch in
// block D; the actual path is A B C F B C D F B G. The branch is skipped in
// iteration 1 (its P1 must be killed by F1), executes in iteration 2
// (matching P2, which F2 then kills), and the loop exit G kills P3.
func TestFigure9Scenario(t *testing.T) {
	s := testSlice()
	branchD := uint64(0x2000)
	c := NewCorrelator(8)
	inst := c.NewInstance(s)

	p1 := c.Allocate(inst, branchD)
	p2 := c.Allocate(inst, branchD)
	p3 := c.Allocate(inst, branchD)
	c.Fill(p1, true)
	c.Fill(p2, false)
	c.Fill(p3, true)

	// Iteration 1: D not fetched; block F kills P1.
	rec1 := c.KillLoop(s)
	if rec1 == nil || len(rec1.Preds) != 1 || rec1.Preds[0] != p1 {
		t.Fatalf("F1 killed %+v", rec1)
	}

	// Iteration 2: D fetched — must match P2, not P1 or P3.
	got, dir, override := c.Lookup(branchD, true, "D2")
	if got != p2 || dir != false || !override {
		t.Fatalf("D2 matched %v dir=%v override=%v, want P2/false/true", got, dir, override)
	}
	// F2 kills the second iteration's prediction.
	rec2 := c.KillLoop(s)
	if rec2 == nil || len(rec2.Preds) != 1 || rec2.Preds[0] != p2 {
		t.Fatalf("F2 killed %+v", rec2)
	}

	// Loop exits: G kills the remainder.
	rec3 := c.KillSlice(s)
	if rec3 == nil || len(rec3.Preds) != 1 || rec3.Preds[0] != p3 {
		t.Fatalf("G killed %+v", rec3)
	}
	if c.PendingFor(branchD) != 0 {
		t.Errorf("pending = %d, want 0", c.PendingFor(branchD))
	}
}

func TestMisSpeculationRecovery(t *testing.T) {
	// A kill performed on the wrong path must be undone so the prediction
	// correlates correctly afterwards (§5.2).
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p1 := c.Allocate(inst, 0x2000)
	c.Fill(p1, true)

	rec := c.KillLoop(s) // wrong-path kill
	if rec == nil {
		t.Fatal("kill missed")
	}
	// While killed, lookups skip it.
	if got, _, _ := c.Lookup(0x2000, false, 1); got != (PredRef{}) {
		t.Fatal("killed entry matched")
	}
	c.UndoKill(rec) // squash restores it
	got, dir, override := c.Lookup(0x2000, false, 2)
	if got != p1 || !dir || !override {
		t.Errorf("restored entry not usable: %v %v %v", got, dir, override)
	}
}

func TestUndoUseRestoresEntry(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p := c.Allocate(inst, 0x2000)
	c.Fill(p, true)
	c.Lookup(0x2000, false, "wrongpath")
	c.UndoUse(p)
	got, _, override := c.Lookup(0x2000, false, "rightpath")
	if got != p || !override {
		t.Error("entry not reusable after UndoUse")
	}
	if p.Live().Consumer != "rightpath" {
		t.Errorf("consumer = %v", p.Live().Consumer)
	}
}

func TestUndoAllocate(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p := c.Allocate(inst, 0x2000)
	c.UndoAllocate(p)
	if c.QueueLen(0x2000) != 0 {
		t.Error("entry survived UndoAllocate")
	}
	// Fill of a removed entry is harmless.
	if r := c.Fill(p, true); r.LateMismatch {
		t.Error("removed entry produced a fill result")
	}
}

func TestLatePredictionFlow(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p := c.Allocate(inst, 0x2000)

	// Branch fetched before the PGI executed: falls back, entry → Late.
	got, dir, override := c.Lookup(0x2000, true, "consumerX")
	if got != p || !dir || override {
		t.Fatalf("late lookup = %v,%v,%v", got, dir, override)
	}
	if p.Live().State() != PredLate {
		t.Fatalf("state = %v", p.Live().State())
	}

	// PGI executes agreeing with the fallback: no redirect.
	r := c.Fill(p, true)
	if r.LateMismatch {
		t.Error("agreeing late fill reported mismatch")
	}
}

func TestLatePredictionEarlyResolution(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p := c.Allocate(inst, 0x2000)
	c.Lookup(0x2000, true, "consumerY") // fetched taken

	r := c.Fill(p, false) // slice says not-taken
	if !r.LateMismatch || r.Consumer != "consumerY" {
		t.Fatalf("fill = %+v", r)
	}
	// The CPU redirects and records the flipped direction.
	c.RedirectUse(p, false)
	if p.Live().UsedDir {
		t.Error("redirect not recorded")
	}
	if c.Stats.LateMismatch != 1 {
		t.Errorf("LateMismatch = %d", c.Stats.LateMismatch)
	}
}

func TestKillEmptyEntry(t *testing.T) {
	// "Kills behave the same whether the entry is Empty or Full" (§5.3).
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p := c.Allocate(inst, 0x2000)
	rec := c.KillLoop(s)
	if rec == nil || len(rec.Preds) != 1 || rec.Preds[0] != p {
		t.Fatalf("empty entry not killed: %+v", rec)
	}
}

func TestKillSkipFirst(t *testing.T) {
	s := testSlice()
	s.LoopKillSkipFirst = true
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p := c.Allocate(inst, 0x2000)
	c.Fill(p, true)

	// First loop-kill per fork is exempt (back-edge-target kill block).
	rec1 := c.KillLoop(s)
	if rec1 == nil || len(rec1.Preds) != 0 || rec1.skipInst != inst {
		t.Fatalf("first kill = %+v", rec1)
	}
	if got, _, _ := c.Lookup(0x2000, false, 1); got != p {
		t.Fatal("prediction lost to an exempt kill")
	}
	c.UndoUse(p)

	// Second kill fires.
	rec2 := c.KillLoop(s)
	if rec2 == nil || len(rec2.Preds) != 1 {
		t.Fatalf("second kill = %+v", rec2)
	}

	// Undoing the first (exempt) kill restores the exemption.
	c.UndoKill(rec1)
	rec3 := c.KillLoop(s)
	if rec3 == nil || rec3.skipInst != inst {
		t.Error("exemption not restored by undo")
	}
}

func TestCommitKillFreesSpace(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(1)
	inst := c.NewInstance(s)
	c.Allocate(inst, 0x2000)
	rec := c.KillLoop(s)
	if c.QueueLen(0x2000) != 1 {
		t.Fatal("killed entry deallocated before killer retired")
	}
	c.CommitKill(rec)
	if c.QueueLen(0x2000) != 0 {
		t.Fatal("commit did not free the entry")
	}
	if c.Allocate(inst, 0x2000) == (PredRef{}) {
		t.Error("space not reusable after commit")
	}
}

func TestSliceKillFinishesAllLiveInstances(t *testing.T) {
	// A slice kill ends the covered region for every live instance: all
	// of them were forked before it in fetch order, so all are stale or
	// current. This is what re-aligns the correlator after squash/replay
	// churn leaves a backlog.
	s := testSlice()
	c := NewCorrelator(8)
	i1 := c.NewInstance(s)
	i2 := c.NewInstance(s)
	p1 := c.Allocate(i1, 0x2000)
	p2 := c.Allocate(i2, 0x2000)

	rec := c.KillSlice(s)
	if len(rec.Preds) != 2 || !p1.Live().Killed || !p2.Live().Killed {
		t.Fatalf("slice kill hit %d entries, want both instances'", len(rec.Preds))
	}
	// A second slice kill has nothing left to target.
	if rec2 := c.KillSlice(s); rec2 != nil {
		t.Fatalf("second slice kill = %+v, want nil", rec2)
	}
	// Undo restores both instances and their entries.
	c.UndoKill(rec)
	if p1.Live().Killed || p2.Live().Killed {
		t.Error("undo did not restore entries")
	}
	if c.LiveInstances(s) != 2 {
		t.Errorf("live = %d after undo", c.LiveInstances(s))
	}
}

func TestSliceKillSkipFirst(t *testing.T) {
	// A slice hoisted one outer iteration ahead survives the first slice
	// kill it sees (its predictions are for the *next* iteration).
	s := testSlice()
	s.SliceKillSkipFirst = true
	c := NewCorrelator(8)
	i1 := c.NewInstance(s)
	c.Allocate(i1, 0x2000)
	rec := c.KillSlice(s)
	if rec == nil || len(rec.Preds) != 0 || len(rec.skipSliceInsts) != 1 {
		t.Fatalf("first kill = %+v, want a consumed exemption", rec)
	}
	// The second kill retires it; a younger instance keeps its exemption.
	i2 := c.NewInstance(s)
	c.Allocate(i2, 0x2000)
	rec2 := c.KillSlice(s)
	if len(rec2.finishedInsts) != 1 || rec2.finishedInsts[0] != i1 {
		t.Fatalf("second kill finished %+v, want i1 only", rec2.finishedInsts)
	}
	if len(rec2.skipSliceInsts) != 1 || rec2.skipSliceInsts[0] != i2 {
		t.Fatalf("second kill did not consume i2's exemption")
	}
	// Undoing restores both the finish and the exemptions.
	c.UndoKill(rec2)
	if i1.Done() || i2.inst.skipSliceKill != 1 {
		t.Error("undo did not restore slice-kill state")
	}
}

func TestLookupRestrictedToOldestLiveInstance(t *testing.T) {
	// Predictions from a younger instance belong to a future iteration
	// and must not match the current one, even when the older instance
	// never allocated an entry for this branch.
	s := testSlice()
	c := NewCorrelator(8)
	i1 := c.NewInstance(s)
	i2 := c.NewInstance(s)
	p2 := c.Allocate(i2, 0x2000)
	c.Fill(p2, true)
	if got, _, override := c.Lookup(0x2000, false, 1); got != (PredRef{}) || override {
		t.Fatalf("younger instance's entry matched: %v", got)
	}
	// Retiring i1 makes i2 current.
	rec := c.KillSlice(s) // finishes both (kill-all) — use loop kill semantics instead
	c.UndoKill(rec)
	i1.inst.finished = true // simulate i1 retiring alone
	got, dir, override := c.Lookup(0x2000, false, 2)
	if got != p2 || !dir || !override {
		t.Fatalf("current instance's entry did not match: %v %v %v", got, dir, override)
	}
}

func TestLoopKillTargetsOldestLiveInstance(t *testing.T) {
	// Allocations from concurrent helpers interleave in the queue; the
	// loop kill must hit the oldest live instance's entry regardless.
	s := testSlice()
	c := NewCorrelator(8)
	i1 := c.NewInstance(s)
	i2 := c.NewInstance(s)
	p2 := c.Allocate(i2, 0x2000) // younger instance allocates first
	p1 := c.Allocate(i1, 0x2000)
	rec := c.KillLoop(s)
	if len(rec.Preds) != 1 || rec.Preds[0] != p1 {
		t.Fatalf("loop kill hit %+v, want the oldest live instance's entry", rec.Preds)
	}
	if p2.Live().Killed {
		t.Error("younger instance's entry killed")
	}
}

func TestRemoveInstance(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	c.Allocate(inst, 0x2000)
	c.Allocate(inst, 0x2000)
	c.RemoveInstance(inst)
	if c.QueueLen(0x2000) != 0 {
		t.Error("entries survived instance removal")
	}
	// Removing twice is harmless; allocating afterwards fails.
	c.RemoveInstance(inst)
	if c.Allocate(inst, 0x2000) != (PredRef{}) {
		t.Error("allocation on removed instance succeeded")
	}
	// Kills against a slice with no live instances report no target.
	if rec := c.KillLoop(s); rec != nil {
		t.Errorf("kill with no instance = %+v", rec)
	}
	if c.Stats.KillNoTarget == 0 {
		t.Error("KillNoTarget not counted")
	}
}

func TestMultiBranchLoopKill(t *testing.T) {
	// A slice covering two problem branches kills one prediction in each
	// queue per iteration.
	s := testSlice()
	s.PGIs = []PGI{
		{SlicePC: 0x100010, BranchPC: 0x2000},
		{SlicePC: 0x100014, BranchPC: 0x2020},
	}
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	a1 := c.Allocate(inst, 0x2000)
	b1 := c.Allocate(inst, 0x2020)
	a2 := c.Allocate(inst, 0x2000)
	rec := c.KillLoop(s)
	if len(rec.Preds) != 2 {
		t.Fatalf("loop kill hit %d entries", len(rec.Preds))
	}
	if !a1.Live().Killed || !b1.Live().Killed || a2.Live().Killed {
		t.Error("wrong entries killed")
	}
}

// TestStaleReferencesAreDead: once a squashed fork's instance is recycled
// and a later fork reuses it and its prediction entries, references taken
// before read dead. The old instance reference is Done and can neither
// allocate nor remove the new instance; every operation through an old
// prediction reference or an old kill record leaves the reused entry, the
// queue and the counters untouched.
func TestStaleReferencesAreDead(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	old := c.NewInstance(s)
	a, b := c.Allocate(old, 0x2000), c.Allocate(old, 0x2000)
	undone, committed := c.KillLoop(s), c.KillLoop(s) // kill a, then b
	c.RemoveInstance(old)                             // the fork is squashed

	cur := c.NewInstance(s)
	p1, p2 := c.Allocate(cur, 0x2000), c.Allocate(cur, 0x2000)
	if cur.inst != old.inst || p1.p != b.p || p2.p != a.p {
		t.Fatal("the second fork did not reuse the recycled instance and entries")
	}
	if !old.Done() || cur.Done() {
		t.Fatalf("old reference Done=%t, new reference Done=%t; want true, false", old.Done(), cur.Done())
	}
	if a.Live() != nil || b.Live() != nil {
		t.Fatal("an old prediction reference reads live")
	}
	if c.Allocate(old, 0x2000) != (PredRef{}) {
		t.Fatal("an old instance reference allocated")
	}
	c.Lookup(0x2000, true, "br") // p1 is now Late, bound to "br"

	before1, before2, stats := *p1.Live(), *p2.Live(), c.Stats
	for _, r := range []PredRef{a, b} {
		if res := c.Fill(r, false); res != (FillResult{}) {
			t.Errorf("Fill through an old reference = %+v", res)
		}
		c.UndoUse(r)
		c.RedirectUse(r, false)
		c.DropConsumer(r, "br")
		c.UndoAllocate(r)
	}
	c.UndoKill(undone)
	c.CommitKill(committed)
	c.RemoveInstance(old)
	if *p1.Live() != before1 || *p2.Live() != before2 {
		t.Errorf("old references changed the reused entries: %+v %+v, want %+v %+v",
			*p1.Live(), *p2.Live(), before1, before2)
	}
	if c.Stats != stats || c.QueueLen(0x2000) != 2 || cur.Done() {
		t.Errorf("old references moved the correlator: stats %+v (want %+v), queue %d, new instance Done=%t",
			c.Stats, stats, c.QueueLen(0x2000), cur.Done())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
