package oracle_test

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/progen"
	"repro/internal/slicehw"
)

// buildMultiPair co-schedules two independent random programs on one core
// and seeds an oracle with slot-matched functional models.
func buildMultiPair(t *testing.T, seeds []int64) (*cpu.Core, *oracle.Oracle) {
	t.Helper()
	cfg := cpu.Config4Wide()
	cfg.ThreadContexts = len(seeds)
	var specs []cpu.ProgSpec
	var oseeds []oracle.ProgSeed
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		im, entry, init := progen.Program(rng)
		coreMem := mem.New()
		init(coreMem)
		specs = append(specs, cpu.ProgSpec{Image: im, Mem: coreMem, Entry: entry})
		orcMem := mem.New()
		init(orcMem)
		oseeds = append(oseeds, oracle.ProgSeed{Image: im, Mem: orcMem, Entry: entry, Name: "prog"})
	}
	core, err := cpu.NewMulti(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	mo := oracle.NewMulti(oseeds, oracle.Options{})
	mo.Attach(core)
	return core, mo
}

// TestMultiOracleIndependentStreams validates the co-scheduled retirement
// plumbing end to end: each program's retirements route to its own model
// (the oracle observes every program's retirements, and each program
// retires some), every model runs divergence-free despite fetch/issue
// contention, and VerifyFinal matches each drained register file against
// its own functional model.
func TestMultiOracleIndependentStreams(t *testing.T) {
	core, mo := buildMultiPair(t, []int64{3, 17})
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("co-scheduled core did not drain")
	}
	var total uint64
	for i := 0; i < core.NumPrograms(); i++ {
		n := core.ProgSim(i).MainRetired
		if n == 0 {
			t.Errorf("program %d retired nothing; test is vacuous", i)
		}
		total += n
	}
	if got := mo.Retired(); got != total {
		t.Errorf("oracle validated %d retirements, programs retired %d", got, total)
	}
	if err := mo.VerifyFinal(core); err != nil {
		t.Fatalf("co-scheduled validation diverged: %v", err)
	}
}

// TestMultiOracleFaultConfinedToLeg injects a register-write corruption
// into program 1's stream only and requires every report to name program
// 1 — proving the models are genuinely independent diffs, not a merged
// stream where one program's fault could be masked or misattributed.
func TestMultiOracleFaultConfinedToLeg(t *testing.T) {
	core, mo := buildMultiPair(t, []int64{3, 17})
	fired := false
	core.RetireObserver = func(di *cpu.DynInst) {
		if !fired && di.Thread.ProgIndex() == 1 && di.Out.WroteReg {
			fired = true
			d2 := *di
			d2.Out.Value ^= 0x1
			mo.OnRetire(&d2)
			return
		}
		mo.OnRetire(di)
	}
	core.Run(1 << 40)
	if !fired {
		t.Fatal("fault never injected (program 1 wrote no register)")
	}
	divs := mo.Divergences()
	if len(divs) == 0 {
		t.Fatal("injected fault in program 1 not detected")
	}
	for _, d := range divs {
		if d.Workload != "prog[p1]" {
			t.Errorf("report labelled %q, want prog[p1]: %v", d.Workload, d)
		}
	}
	if mo.Err() == nil {
		t.Error("Err() nil despite a diverged program")
	}
}

// TestSweepOutlivesProgramZero: the whole-core invariant sweep is paced by
// any program's retirements, so a corruption keeps failing sweeps after
// program 0 has halted and only program 1 still retires.
func TestSweepOutlivesProgramZero(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.Halt()
	p := b.MustBuild()
	haltIm, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}
	im, entry, init := progen.Program(rand.New(rand.NewSource(17)))
	coreMem, orcMem := mem.New(), mem.New()
	init(coreMem)
	init(orcMem)
	cfg := cpu.Config4Wide()
	cfg.ThreadContexts = 2
	core, err := cpu.NewMulti(cfg, []cpu.ProgSpec{
		{Image: haltIm, Mem: mem.New(), Entry: p.Base, SliceTable: slicehw.MustTable(nil)},
		{Image: im, Mem: coreMem, Entry: entry},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.NewMulti([]oracle.ProgSeed{
		{Image: haltIm, Mem: mem.New(), Entry: p.Base},
		{Image: im, Mem: orcMem, Entry: entry},
	}, oracle.Options{Every: 16})
	o.Attach(core)
	strayPrediction(t, core)
	core.Run(1 << 40)
	wantDropped(t, o.Err())
}
