package autoslice

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

func traceOfImage(t *testing.T, im *asm.Image, entry uint64, n int) *Trace {
	t.Helper()
	tr, err := CollectTrace(im, mem.New(), entry, n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSelectForkPointShortTrace pins the clipped-window behavior: an
// episode whose maxLead window extends past the trace start must be scored
// over what the trace has, not discarded. Before the fix, a problem
// instance this close to the trace start produced no candidates at all.
func TestSelectForkPointShortTrace(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	for i := 0; i < 10; i++ {
		b.I(isa.ADDI, 2, 2, 1)
	}
	b.B(isa.BEQ, 3, "end") // r3 == 0: taken
	b.Label("end")
	b.Halt()
	p := b.MustBuild()
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := traceOfImage(t, im, 0x1000, 100)

	branchPC := p.Base + 10*isa.InstBytes
	cands := SelectForkPoint(tr, []uint64{branchPC}, 8, 40)
	if len(cands) == 0 {
		t.Fatal("clipped episode produced no candidates")
	}
	if cands[0].Coverage != 1.0 {
		t.Errorf("best coverage = %.2f, want 1.0", cands[0].Coverage)
	}
}

// TestSelectForkPointEquivalenceDenominator pins the scoring fix: a loop
// header executing exactly once per episode must score Equivalence 1.0
// (episodes and executions counted over the same span), full coverage,
// full purity — and must rank first, ahead of every filler PC with a
// shorter lead and every impure previous-iteration PC.
func TestSelectForkPointEquivalenceDenominator(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.I(isa.LDI, 1, 0, 30) // iteration count
	b.Label("loop")
	headerPC := b.PC()
	b.I(isa.ADDI, 5, 5, 1) // once per iteration: the ideal fork point
	for i := 0; i < 12; i++ {
		b.I(isa.ADDI, 6, 6, 1)
	}
	b.I(isa.ADDI, 1, 1, -1)
	branchPC := b.PC()
	b.B(isa.BGT, 1, "loop")
	b.Halt()
	im, err := asm.NewImage(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	tr := traceOfImage(t, im, 0x1000, 2000)

	cands := SelectForkPoint(tr, []uint64{branchPC}, 8, 40)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	best := cands[0]
	if best.PC != headerPC {
		t.Fatalf("best PC = %#x, want loop header %#x (candidates: %+v)", best.PC, headerPC, cands[:3])
	}
	if best.Equivalence != 1.0 {
		t.Errorf("header equivalence = %.3f, want 1.0", best.Equivalence)
	}
	if best.Coverage < 0.95 {
		t.Errorf("header coverage = %.3f", best.Coverage)
	}
	if best.Purity != 1.0 {
		t.Errorf("header purity = %.3f, want 1.0", best.Purity)
	}
}

// TestSelectForkPointAdaptiveLead covers the tight-burst case: problem
// instances arrive in bursts (an inner loop) recurring faster than
// minLead. A fixed minimum lead would force every fork into the previous
// burst, where its predictions get stolen; the adaptive episode gap and
// lead must instead find a pure, control-equivalent fork in the quiet
// stretch between bursts.
func TestSelectForkPointAdaptiveLead(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.I(isa.LDI, 1, 0, 40) // outer count
	b.Label("outer")
	quietLo := b.PC()
	for i := 0; i < 12; i++ {
		b.I(isa.ADDI, 4, 4, 1) // quiet stretch, once per outer iteration
	}
	quietHi := b.PC()
	b.I(isa.LDI, 2, 0, 6) // inner count
	b.Label("inner")
	b.I(isa.ADDI, 3, 3, 7)
	b.I(isa.ADDI, 2, 2, -1)
	branchPC := b.PC()
	b.B(isa.BGT, 2, "inner") // the problem branch: bursts of 6, every ~3 insts
	b.I(isa.ADDI, 1, 1, -1)
	b.B(isa.BGT, 1, "outer")
	b.Halt()
	im, err := asm.NewImage(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	tr := traceOfImage(t, im, 0x1000, 4000)

	cands := SelectForkPoint(tr, []uint64{branchPC}, 25, 60)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	best := cands[0]
	if best.MeanLead >= 25 {
		t.Errorf("best lead %.1f did not adapt below minLead 25", best.MeanLead)
	}
	if best.Purity < 0.9 {
		t.Errorf("best purity %.2f: fork sits inside the previous burst", best.Purity)
	}
	if best.Equivalence < 0.9 {
		t.Errorf("best equivalence %.2f", best.Equivalence)
	}
	if best.Coverage < 0.9 {
		t.Errorf("best coverage %.2f", best.Coverage)
	}
	// The winner must be a once-per-outer-iteration PC (quiet stretch or
	// the outer-loop bookkeeping right before it), not a burst-body PC and
	// not the run-once prologue.
	inQuiet := best.PC >= quietLo && best.PC < quietHi
	outerTail := best.PC > branchPC // the outer decrement / back-branch
	if !inQuiet && !outerTail {
		t.Errorf("best PC %#x is not in the per-iteration quiet region [%#x,%#x) or outer tail", best.PC, quietLo, quietHi)
	}
}

// TestClusterProblemPCsGroupsAndSkips pins clustering: PCs from two
// disjoint execution phases land in different groups (ordered by first
// instance), and a PC with no dynamic instance is reported as skipped
// rather than silently dropped.
func TestClusterProblemPCsGroupsAndSkips(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.I(isa.LDI, 1, 0, 20)
	b.Label("A")
	b.I(isa.ADDI, 2, 2, 1)
	b.I(isa.ADDI, 1, 1, -1)
	pcA := b.PC()
	b.B(isa.BGT, 1, "A")
	for i := 0; i < 80; i++ { // separate the phases by more than the gap
		b.I(isa.ADDI, 6, 6, 1)
	}
	b.I(isa.LDI, 3, 0, 20)
	b.Label("B")
	b.I(isa.ADDI, 4, 4, 1)
	b.I(isa.ADDI, 3, 3, -1)
	pcB := b.PC()
	b.B(isa.BGT, 3, "B")
	b.Halt()
	im, err := asm.NewImage(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	tr := traceOfImage(t, im, 0x1000, 4000)

	never := uint64(0x9000) // never executed
	groups, skipped := ClusterProblemPCs(tr, []uint64{pcA, pcB, never}, 50)
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want two", groups)
	}
	if len(groups[0]) != 1 || groups[0][0] != pcA {
		t.Errorf("group 0 = %v, want [%#x]", groups[0], pcA)
	}
	if len(groups[1]) != 1 || groups[1][0] != pcB {
		t.Errorf("group 1 = %v, want [%#x]", groups[1], pcB)
	}
	if len(skipped) != 1 || skipped[0] != never {
		t.Errorf("skipped = %v, want [%#x]", skipped, never)
	}
}

// TestBuildNonZeroTestBranchKinds pins that problem branches beyond
// BEQ/BNE are sliceable: the PGI recomputes the guard through the compare
// producer (BGT/BLE lower to CMPLE, BLT/BGE to CMPLT) instead of the
// branch being silently dropped.
func TestBuildNonZeroTestBranchKinds(t *testing.T) {
	cases := []struct {
		op      isa.Op // loop-back branch kind
		init    int32  // counter start
		step    int32  // counter step
		wantCmp isa.Op // compare the PGI must use
	}{
		{isa.BGT, 50, -1, isa.CMPLE},
		{isa.BLT, -50, 1, isa.CMPLT},
	}
	for _, c := range cases {
		b := asm.NewBuilder(0x1000)
		b.I(isa.LDI, 1, 0, c.init)
		b.Label("loop")
		forkPC := b.PC()
		for i := 0; i < 8; i++ {
			b.I(isa.ADDI, 2, 2, 1)
		}
		b.I(isa.ADDI, 1, 1, c.step)
		branchPC := b.PC()
		b.B(c.op, 1, "loop")
		b.Halt()
		im, err := asm.NewImage(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		tr := traceOfImage(t, im, 0x1000, 2000)

		built, err := Build(tr, forkPC, []uint64{branchPC}, SliceBase)
		if err != nil {
			t.Fatalf("%v branch not sliceable: %v", c.op, err)
		}
		if len(built.Slice.PGIs) == 0 {
			t.Fatalf("%v: no PGI generated", c.op)
		}
		found := false
		for _, p := range built.Slice.PGIs {
			if p.BranchPC == branchPC {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: no PGI for branch %#x", c.op, branchPC)
		}
		hasCmp := false
		for _, in := range built.Program.Insts {
			if in.Op == c.wantCmp && in.Rd == isa.AT {
				hasCmp = true
			}
		}
		if !hasCmp {
			t.Errorf("%v: slice program has no %v guard recomputation:\n%s",
				c.op, c.wantCmp, built.Program.Disasm())
		}
	}
}
