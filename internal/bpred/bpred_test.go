package bpred

import (
	"math/rand"
	"testing"
)

func trainUntil(p DirPredictor, pc, hist uint64, taken bool, n int) {
	for i := 0; i < n; i++ {
		p.Update(pc, hist, taken)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := uint64(0x1000)
	trainUntil(b, pc, 0, false, 4)
	if b.Predict(pc, 0) {
		t.Error("bimodal failed to learn not-taken")
	}
	trainUntil(b, pc, 0, true, 4)
	if !b.Predict(pc, 0) {
		t.Error("bimodal failed to learn taken")
	}
}

func TestBimodalHysteresis(t *testing.T) {
	b := NewBimodal(1024)
	pc := uint64(0x2000)
	trainUntil(b, pc, 0, true, 4)
	b.Update(pc, 0, false) // one anomaly
	if !b.Predict(pc, 0) {
		t.Error("single anomaly flipped a saturated counter")
	}
}

func TestGShareLearnsHistoryPattern(t *testing.T) {
	g := NewGShare(4096, 8)
	pc := uint64(0x3000)
	// Alternating pattern: taken iff low history bit is 0. Bimodal cannot
	// learn this; gshare can because history disambiguates.
	var hist uint64
	correct := 0
	for i := 0; i < 2000; i++ {
		want := hist&1 == 0
		if g.Predict(pc, hist) == want && i > 200 {
			correct++
		}
		g.Update(pc, hist, want)
		hist = hist<<1 | map[bool]uint64{true: 1, false: 0}[want]
	}
	if correct < 1700 {
		t.Errorf("gshare learned %d/1800 of an alternating pattern", correct)
	}
}

func TestYAGSLearnsBias(t *testing.T) {
	y := DefaultYAGS()
	pc := uint64(0x4000)
	trainUntil(y, pc, 0, true, 8)
	if !y.Predict(pc, 0) {
		t.Error("YAGS failed to learn a taken bias")
	}
	pc2 := uint64(0x4040)
	trainUntil(y, pc2, 0, false, 8)
	if y.Predict(pc2, 0) {
		t.Error("YAGS failed to learn a not-taken bias")
	}
}

func TestYAGSLearnsExceptions(t *testing.T) {
	y := DefaultYAGS()
	pc := uint64(0x5000)
	// Mostly taken, but always not-taken under one specific history.
	special := uint64(0xAB)
	correct, total := 0, 0
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		hist := uint64(rng.Intn(256))
		want := hist != special
		if rng.Intn(8) == 0 {
			hist = special
			want = false
		}
		got := y.Predict(pc, hist)
		if i > 1000 {
			total++
			if got == want {
				correct++
			}
		}
		y.Update(pc, hist, want)
	}
	if float64(correct)/float64(total) < 0.95 {
		t.Errorf("YAGS exception accuracy = %d/%d", correct, total)
	}
}

func TestYAGSBeatsBimodalOnCorrelated(t *testing.T) {
	y := DefaultYAGS()
	b := NewBimodal(8192)
	pc := uint64(0x6000)
	var hist uint64
	yc, bc := 0, 0
	// Period-3 pattern: T T N — history-correlated, bias-taken.
	pattern := []bool{true, true, false}
	for i := 0; i < 6000; i++ {
		want := pattern[i%3]
		if i > 1000 {
			if y.Predict(pc, hist) == want {
				yc++
			}
			if b.Predict(pc, hist) == want {
				bc++
			}
		}
		y.Update(pc, hist, want)
		b.Update(pc, hist, want)
		if want {
			hist = hist<<1 | 1
		} else {
			hist = hist << 1
		}
	}
	if yc <= bc {
		t.Errorf("YAGS (%d) did not beat bimodal (%d) on a correlated pattern", yc, bc)
	}
}

func TestYAGSUnbiasedBranchIsHard(t *testing.T) {
	// A data-dependent 50/50 branch with random history must hover near
	// chance — this is exactly the paper's "problem branch" premise.
	y := DefaultYAGS()
	pc := uint64(0x7000)
	rng := rand.New(rand.NewSource(13))
	correct, total := 0, 0
	for i := 0; i < 20000; i++ {
		hist := rng.Uint64()
		want := rng.Intn(2) == 0
		if i > 2000 {
			total++
			if y.Predict(pc, hist) == want {
				correct++
			}
		}
		y.Update(pc, hist, want)
	}
	acc := float64(correct) / float64(total)
	if acc > 0.65 {
		t.Errorf("YAGS predicted random branch at %.2f — model broken", acc)
	}
}

func TestCascadedMonomorphic(t *testing.T) {
	c := mustNew[*Cascaded](t, NewIndirect, "cascaded")
	pc := uint64(0x8000)
	c.Update(pc, 0, 0x9000)
	if got := c.Predict(pc, 0); got != 0x9000 {
		t.Errorf("stage-1 predict = %#x", got)
	}
	// Monomorphic branches must not allocate stage 2.
	for i := range c.stage2 {
		if c.stage2[i].valid {
			t.Fatal("stage 2 allocated for a monomorphic branch")
		}
	}
}

func TestCascadedPolymorphic(t *testing.T) {
	c := mustNew[*Cascaded](t, NewIndirect, "cascaded")
	pc := uint64(0x8000)
	// Target depends on path.
	pathA, pathB := uint64(0x11), uint64(0x2200)
	for i := 0; i < 10; i++ {
		c.Update(pc, pathA, 0xA000)
		c.Update(pc, pathB, 0xB000)
	}
	if got := c.Predict(pc, pathA); got != 0xA000 {
		t.Errorf("path A predict = %#x", got)
	}
	if got := c.Predict(pc, pathB); got != 0xB000 {
		t.Errorf("path B predict = %#x", got)
	}
}

func TestCascadedColdReturnsZero(t *testing.T) {
	c := mustNew[*Cascaded](t, NewIndirect, "cascaded")
	if got := c.Predict(0xF000, 0); got != 0 {
		t.Errorf("cold predict = %#x", got)
	}
}

func TestPushPathChanges(t *testing.T) {
	p := PushPath(0, 0x4000)
	if p == 0 {
		t.Error("path history did not absorb the target")
	}
	if PushPath(p, 0x4000) == p {
		t.Error("path history must keep evolving")
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(64)
	r.Push(0x1004)
	r.Push(0x2008)
	if got := r.Pop(); got != 0x2008 {
		t.Errorf("pop = %#x", got)
	}
	if got := r.Pop(); got != 0x1004 {
		t.Errorf("pop = %#x", got)
	}
}

func TestRASSaveRestore(t *testing.T) {
	r := NewRAS(64)
	r.Push(0x1000)
	r.Push(0x2000)
	cp := r.Mark()
	// Wrong-path activity: one pop, one garbage push.
	r.Pop()
	r.Push(0xDEAD)
	r.Restore(cp)
	if got := r.Pop(); got != 0x2000 {
		t.Errorf("post-restore pop = %#x", got)
	}
	if got := r.Pop(); got != 0x1000 {
		t.Errorf("post-restore pop = %#x", got)
	}
}

func TestRASRepairFullHeight(t *testing.T) {
	// The case the old (sp, top) scheme could not repair: wrong-path pops
	// below the checkpointed top followed by wrong-path pushes that
	// overwrite the vacated slots. The journal restores every slot.
	r := NewRAS(64)
	r.Push(0x1000)
	r.Push(0x2000)
	cp := r.Mark()
	r.Pop()
	r.Pop()
	r.Push(0xDEAD) // overwrites the slot that held 0x1000
	r.Push(0xBEEF) // overwrites the slot that held 0x2000
	r.Restore(cp)
	if got := r.Pop(); got != 0x2000 {
		t.Errorf("top entry: pop = %#x, want 0x2000", got)
	}
	if got := r.Pop(); got != 0x1000 {
		t.Errorf("second entry: pop = %#x, want 0x1000 (full-height repair)", got)
	}
}

func TestRASRepairNestedCheckpoints(t *testing.T) {
	// Restores must be repeatable against progressively older in-flight
	// checkpoints, exactly as nested squashes replay them.
	r := NewRAS(8)
	r.Push(0x100)
	cpOld := r.Mark()
	r.Push(0x200)
	cpMid := r.Mark()
	r.Pop()
	r.Pop()
	r.Push(0xAAA)
	r.Push(0xBBB)
	r.Restore(cpMid)
	if got := r.Mark(); got.SP != cpMid.SP {
		t.Fatalf("sp after mid restore = %d, want %d", got.SP, cpMid.SP)
	}
	r.Restore(cpOld)
	if got := r.Pop(); got != 0x100 {
		t.Errorf("after nested restores: pop = %#x, want 0x100", got)
	}
}

func TestRASCommitTrimsJournal(t *testing.T) {
	// In-order commits drop the dead journal prefix; later restores still
	// repair everything younger than the newest committed checkpoint.
	r := NewRAS(64)
	for i := 0; i < 100; i++ {
		r.Push(uint64(0x1000 + i*8))
		r.Commit(r.Mark()) // everything so far is committed
	}
	if got := len(r.jbuf) - r.jhead; got != 0 {
		t.Fatalf("live journal after full commit = %d entries, want 0", got)
	}
	cp := r.Mark()
	r.Pop()
	r.Pop()
	r.Push(0xDEAD)
	r.Push(0xBEEF)
	r.Restore(cp)
	if got := r.Pop(); got != uint64(0x1000+99*8) {
		t.Errorf("post-commit restore: pop = %#x", got)
	}
	if got := r.Pop(); got != uint64(0x1000+98*8) {
		t.Errorf("post-commit restore: pop = %#x", got)
	}
}

func TestRASRepairAcrossOverflowWrap(t *testing.T) {
	// Wrong-path pushes that wrap the circular stack overwrite its oldest
	// entries; the journal must bring those back too.
	r := NewRAS(4)
	for i := 0; i < 4; i++ {
		r.Push(uint64(0x100 + i*8))
	}
	cp := r.Mark()
	for i := 0; i < 4; i++ {
		r.Push(0xD000 + uint64(i)) // wraps, clobbering all four live slots
	}
	r.Restore(cp)
	for i := 3; i >= 0; i-- {
		if got := r.Pop(); got != uint64(0x100+i*8) {
			t.Fatalf("entry %d after wrap repair: pop = %#x, want %#x", i, got, 0x100+i*8)
		}
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 0; i < 6; i++ {
		r.Push(uint64(0x1000 + i*4))
	}
	// The newest 4 survive.
	for i := 5; i >= 2; i-- {
		if got := r.Pop(); got != uint64(0x1000+i*4) {
			t.Errorf("pop = %#x, want %#x", got, 0x1000+i*4)
		}
	}
	if r.Depth() != 2 {
		t.Errorf("depth = %d", r.Depth())
	}
}

func TestRASDeepCallChain(t *testing.T) {
	// Matched call/return nesting up to the capacity must predict
	// perfectly.
	r := NewRAS(64)
	var addrs []uint64
	for i := 0; i < 64; i++ {
		a := uint64(0x10000 + i*8)
		addrs = append(addrs, a)
		r.Push(a)
	}
	for i := 63; i >= 0; i-- {
		if got := r.Pop(); got != addrs[i] {
			t.Fatalf("pop %d = %#x, want %#x", i, got, addrs[i])
		}
	}
}

// Benchmarks for the predictor hot paths (these run in every simulated
// fetch cycle, so their cost dominates simulator throughput).
func BenchmarkYAGSPredict(b *testing.B) {
	y := DefaultYAGS()
	for i := 0; i < b.N; i++ {
		y.Predict(uint64(i)<<2, uint64(i)*2654435761)
	}
}

func BenchmarkYAGSUpdate(b *testing.B) {
	y := DefaultYAGS()
	for i := 0; i < b.N; i++ {
		y.Update(uint64(i)<<2, uint64(i)*2654435761, i&3 != 0)
	}
}

func BenchmarkCascadedPredict(b *testing.B) {
	c := mustNew[*Cascaded](b, NewIndirect, "cascaded")
	for i := 0; i < b.N; i++ {
		c.Predict(uint64(i)<<2, uint64(i))
	}
}
