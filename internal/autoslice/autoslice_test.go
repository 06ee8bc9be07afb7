package autoslice

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/workloads"
)

func traceOf(t *testing.T, w *workloads.Workload, n int) *Trace {
	t.Helper()
	tr, err := CollectTrace(w.Image, w.NewMemory(), w.Entry, n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCollectTraceDataflow(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.I(isa.LDI, 1, 0, 5)  // idx 0: writes r1
	b.I(isa.ADDI, 2, 1, 3) // idx 1: reads r1 → producer 0
	b.R(isa.ADD, 3, 2, 1)  // idx 2: reads r2 (1), r1 (0)
	b.R(isa.ADD, 4, 5, 5)  // idx 3: reads r5 → live-in (-1)
	b.Halt()
	p := b.MustBuild()
	im, _ := asm.NewImage(p)
	tr, err := CollectTrace(im, mem.New(), 0x1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.entries[1].src[0] != 0 {
		t.Errorf("idx1 producer = %d", tr.entries[1].src[0])
	}
	if got := tr.entries[2]; got.src[0] != 1 || got.src[1] != 0 {
		t.Errorf("idx2 producers = %v", got.src[:got.nsrc])
	}
	if tr.entries[3].src[0] != -1 {
		t.Errorf("live-in producer = %d", tr.entries[3].src[0])
	}
}

func TestSelectForkPointOnCrafty(t *testing.T) {
	w, _ := workloads.ByName("crafty")
	tr := traceOf(t, w, 60_000)
	branchPC := w.Slices[0].PGIs[0].BranchPC
	cands := SelectForkPoint(tr, []uint64{branchPC}, 8, 40)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	best := cands[0]
	if best.Coverage < 0.99 {
		t.Errorf("best coverage %.2f", best.Coverage)
	}
	if best.MeanLead < 8 || best.MeanLead > 40 {
		t.Errorf("best lead %.1f", best.MeanLead)
	}
	// The hand-picked fork point must be among the viable candidates.
	found := false
	for _, c := range cands {
		if c.PC == w.Slices[0].ForkPC && c.Coverage > 0.99 {
			found = true
		}
	}
	if !found {
		t.Error("hand fork point not rediscovered")
	}
}

func TestLiveInsOf(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2}, // reads r1, r2 → live-ins
		{Op: isa.ADD, Rd: 4, Ra: 3, Rb: 1}, // r3 written above, r1 already counted
		{Op: isa.LD, Rd: 5, Ra: 4},         // r4 written above
	}
	live := liveInsOf(insts)
	if len(live) != 2 || live[0] != 1 || live[1] != 2 {
		t.Errorf("live-ins = %v", live)
	}
}

// TestAutoSliceOnCrafty is the end-to-end §3.3 pipeline: trace → fork
// selection → backward slice → executable slice, then simulate and check
// the generated slice behaves like a hand-built one.
func TestAutoSliceOnCrafty(t *testing.T) {
	w, _ := workloads.ByName("crafty")
	hand := w.Slices[0]
	tr := traceOf(t, w, 60_000)
	branchPC := hand.PGIs[0].BranchPC

	built, err := Build(tr, hand.ForkPC, []uint64{branchPC}, SliceBase)
	if err != nil {
		t.Fatal(err)
	}
	if built.Slice.StaticSize == 0 || built.Slice.StaticSize > 48 {
		t.Fatalf("slice size %d", built.Slice.StaticSize)
	}
	if len(built.Slice.LiveIns) == 0 || len(built.Slice.LiveIns) > 4 {
		t.Fatalf("live-ins %v", built.Slice.LiveIns)
	}
	if len(built.Slice.PGIs) == 0 {
		t.Fatal("no PGIs generated")
	}

	// Simulate with the generated slice only.
	im, err := asm.NewImage(append([]*asm.Program{}, w.Image.Programs()[0], built.Program)...)
	if err != nil {
		t.Fatal(err)
	}
	run := func(table *slicehw.Table) *cpu.Core {
		core := cpu.MustNew(cpu.Config4Wide(), im, w.NewMemory(), w.Entry, table)
		core.Run(30_000)
		core.ResetStats()
		core.Run(60_000)
		return core
	}
	base := run(nil)
	auto := run(slicehw.MustTable([]*slicehw.Slice{built.Slice}))

	if auto.S.Forks == 0 {
		t.Fatal("auto slice never forked")
	}
	used := auto.S.PredsCorrect + auto.S.PredsIncorrect
	if used < 50 {
		t.Fatalf("only %d overrides", used)
	}
	acc := float64(auto.S.PredsCorrect) / float64(used)
	if acc < 0.90 {
		t.Errorf("auto slice accuracy %.3f", acc)
	}
	if auto.S.Mispredicts >= base.S.Mispredicts {
		t.Errorf("auto slice removed no mispredictions: %d vs %d",
			auto.S.Mispredicts, base.S.Mispredicts)
	}
	if auto.S.Cycles >= base.S.Cycles {
		t.Errorf("auto slice gave no speedup: %d vs %d cycles", auto.S.Cycles, base.S.Cycles)
	}
	t.Logf("auto slice: %d insts, live-ins %v, %d PGIs, accuracy %.3f, speedup %.1f%%",
		built.Slice.StaticSize, built.Slice.LiveIns, len(built.Slice.PGIs), acc,
		(float64(base.S.Cycles)/float64(auto.S.Cycles)-1)*100)
}

// TestAutoSliceOnEon covers the multi-branch straight-line case.
func TestAutoSliceOnEon(t *testing.T) {
	w, _ := workloads.ByName("eon")
	hand := w.Slices[0]
	tr := traceOf(t, w, 60_000)
	var branchPCs []uint64
	for _, p := range hand.PGIs {
		branchPCs = append(branchPCs, p.BranchPC)
	}
	built, err := Build(tr, hand.ForkPC, branchPCs, SliceBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Slice.PGIs) < len(branchPCs) {
		t.Fatalf("PGIs %d < covered branches %d", len(built.Slice.PGIs), len(branchPCs))
	}

	im, err := asm.NewImage(w.Image.Programs()[0], built.Program)
	if err != nil {
		t.Fatal(err)
	}
	core := cpu.MustNew(cpu.Config4Wide(), im, w.NewMemory(), w.Entry,
		slicehw.MustTable([]*slicehw.Slice{built.Slice}))
	core.Run(30_000)
	core.ResetStats()
	s := core.Run(60_000)
	if s.PredsCorrect+s.PredsIncorrect+s.PredsLateUsed == 0 {
		t.Fatal("no predictions matched")
	}
	acc := float64(s.PredsCorrect) / float64(s.PredsCorrect+s.PredsIncorrect+1)
	if acc < 0.85 {
		t.Errorf("accuracy %.3f", acc)
	}
}

func TestBuildRejectsBadInputs(t *testing.T) {
	w, _ := workloads.ByName("crafty")
	tr := traceOf(t, w, 20_000)
	if _, err := Build(tr, 0xDEAD0000, []uint64{w.Slices[0].PGIs[0].BranchPC}, SliceBase); err == nil {
		t.Error("unknown fork PC accepted")
	}
	if _, err := Build(tr, w.Slices[0].ForkPC, []uint64{0xDEAD0000}, SliceBase); err == nil {
		t.Error("unknown problem PC accepted")
	}
}
