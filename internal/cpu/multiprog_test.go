package cpu

import (
	"encoding/json"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/workloads"
)

// newMiniPair builds a fresh two-program core (both programs the buildMini
// pointer-chase kernel with slice hardware) so determinism runs can be
// compared from identical starting states.
func newMiniPair(t *testing.T) *Core {
	t.Helper()
	cfg := Config4Wide()
	cfg.ThreadContexts = 2 + 3 // two mains + shared helper pool
	var specs []ProgSpec
	for i := 0; i < 2; i++ {
		w := buildMini(t, 200)
		m := mem.New()
		w.initMem(m)
		specs = append(specs, ProgSpec{
			Image:      w.image,
			Mem:        m,
			Entry:      w.entry,
			SliceTable: slicehw.MustTable(w.slices),
		})
	}
	core, err := NewMulti(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// TestMultiProgramDeterminism runs the same two-program co-schedule twice
// and requires byte-identical per-program counters. Cross-program
// nondeterminism (map-order iteration over shared structures, helper
// contention resolved by anything but the fixed thread order) would show
// up here; running under -race additionally proves the co-scheduled core
// shares no state that needs synchronization it lacks.
func TestMultiProgramDeterminism(t *testing.T) {
	run := func() ([]byte, uint64) {
		core := newMiniPair(t)
		core.Run(500)
		core.ResetStats()
		core.Run(2_000)
		snap := core.Snapshot()
		if len(snap.Progs) != 2 {
			t.Fatalf("snapshot has %d program slots, want 2", len(snap.Progs))
		}
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return b, snap.Progs[0].MainRetired + snap.Progs[1].MainRetired
	}
	b1, retired1 := run()
	b2, _ := run()
	if retired1 == 0 {
		t.Fatal("co-schedule retired nothing; test is vacuous")
	}
	if string(b1) != string(b2) {
		t.Errorf("two identical co-scheduled runs produced different snapshots:\n%s\n---\n%s", b1, b2)
	}
}

// TestMultiProgramFetchForwardProgress co-schedules three and four copies
// of the same kernel — the worst case for front-end contention, since every
// program's hot lines land on the same virtual addresses — and requires
// each to run to completion. This locks down two fixes at once: the
// per-program physical-base skew (without it, identical layouts alias
// set-for-set and three mains fight over one 2-way I-cache set) and the
// MSHR-style guarantee in fetchFrom that an arrived fill delivers its fetch
// even if the line was evicted during the stall. Regression: with neither,
// every quad co-schedule livelocked — all mains perpetually re-missing at a
// frozen PC with empty pipelines.
func TestMultiProgramFetchForwardProgress(t *testing.T) {
	for _, n := range []int{3, 4} {
		cfg := Config4Wide()
		cfg.ThreadContexts = n + 3
		var specs []ProgSpec
		for i := 0; i < n; i++ {
			w := buildMini(t, 200)
			m := mem.New()
			w.initMem(m)
			specs = append(specs, ProgSpec{
				Image:      w.image,
				Mem:        m,
				Entry:      w.entry,
				SliceTable: slicehw.MustTable(w.slices),
			})
		}
		core, err := NewMulti(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		core.Run(1 << 40)
		if !core.Done() {
			for i := 0; i < n; i++ {
				t.Logf("prog %d: retired=%d pc=%#x icStall=%d now=%d",
					i, core.ProgSim(i).MainRetired, core.ProgMain(i).PC,
					core.ProgMain(i).icStallUntil, core.now)
			}
			t.Fatalf("%d-program co-schedule did not complete: fetch livelock", n)
		}
		for i := 0; i < n; i++ {
			if core.ProgSim(i).MainRetired == 0 {
				t.Errorf("%d-program co-schedule: prog %d retired nothing", n, i)
			}
		}
	}
}

// TestMultiProgramMatchesSolo pins down interference isolation at the
// architectural level: a program co-scheduled with another must retire
// the same instruction stream it retires alone. Timing may differ —
// architectural state must not.
func TestMultiProgramMatchesSolo(t *testing.T) {
	solo := func() *Core {
		w := buildMini(t, 200)
		m := mem.New()
		w.initMem(m)
		return MustNew(Config4Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))
	}
	ref := solo()
	ref.Run(1 << 40)
	if !ref.Done() {
		t.Fatal("solo run did not halt")
	}

	core := newMiniPair(t)
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("co-scheduled run did not halt")
	}
	for i := 0; i < core.NumPrograms(); i++ {
		ps, rs := core.ProgSim(i), ref.S
		if ps.MainRetired != rs.MainRetired {
			t.Errorf("prog %d retired %d insts co-scheduled, %d solo", i, ps.MainRetired, rs.MainRetired)
		}
		pm, rm := core.ProgMain(i), ref.main
		if pm.Regs != rm.Regs {
			t.Errorf("prog %d final register file differs from solo run", i)
		}
	}
}

// TestSquashKillsOnlyOwnHelper: a helper context freed by one program can
// be forked again by another, and squashing the first program's forker
// must then leave the second program's helper running. A squash finds the
// helpers to kill by the forking instruction's Seq, which no reused
// context can share.
func TestSquashKillsOnlyOwnHelper(t *testing.T) {
	core := newMiniPair(t)
	forkAt := func(pi int) (*DynInst, *Thread) {
		p := core.progs[pi]
		s := p.sliceTable.Slices()[0]
		p.main.PC = s.ForkPC
		core.fetchOne(p.main, p.pcs.at(s.ForkPC), s.ForkPC)
		for _, h := range core.threads {
			if h.Alive && !h.IsMain && h.prog == p {
				return p.main.fetchq.back(), h
			}
		}
		t.Fatalf("program %d's fetch at the fork PC started no helper", pi)
		return nil, nil
	}

	x0, h0 := forkAt(0)
	h0.Fetching = false // the helper drains and is reaped
	core.reapHelpers()
	if h0.Alive {
		t.Fatal("drained helper not reaped")
	}
	x1, h1 := forkAt(1)
	if h1 != h0 {
		t.Fatal("program 1 did not fork into the context program 0's helper left")
	}

	core.progs[0].main.fetchq.popBack()
	core.squashInst(x0)
	if !h1.Alive || core.ProgSim(1).ForksSquashed != 0 {
		t.Fatal("squashing program 0's forker killed program 1's helper")
	}
	if n := core.ProgSim(0).ForksSquashed; n != 0 {
		t.Errorf("program 0 counted %d squashed forks for a helper already reaped", n)
	}

	core.progs[1].main.fetchq.popBack()
	core.squashInst(x1)
	if h1.Alive || core.ProgSim(1).ForksSquashed != 1 {
		t.Error("squashing program 1's forker left its helper running")
	}
}

// TestRunStopsPastHaltedProgram: a co-scheduled program that halts short
// of Run's target stops counting, so Run returns once the other program
// reaches the target instead of waiting for it to halt too. When every
// program halts short, Run still returns only once the machine is Done.
// MaxCycles is capped so a regression fails on the cycle guard instead of
// hanging.
func TestRunStopsPastHaltedProgram(t *testing.T) {
	const stores = 24 // a burst on distinct lines, left in the write buffer at HALT
	b := asm.NewBuilder(0x1000)
	b.Li(27, 0x40000)
	for i := int32(0); i < stores; i++ {
		b.St(27, 64*i, 27)
	}
	b.Halt()
	short := b.MustBuild()
	im, err := asm.NewImage(short)
	if err != nil {
		t.Fatal(err)
	}
	shortSpec := func() ProgSpec { return ProgSpec{Image: im, Mem: mem.New(), Entry: short.Base} }
	mcf, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config4Wide()
	cfg.MaxCycles = 1_000_000

	c, err := NewMulti(cfg, []ProgSpec{shortSpec(), {Image: mcf.Image, Mem: mcf.NewMemory(), Entry: mcf.Entry}})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(20_000)
	if s := c.ProgSim(1); s.MainRetired < 20_000 || s.CycleGuardHits != 0 {
		t.Fatalf("the running program retired %d of 20000 with %d cycle-guard hits", s.MainRetired, s.CycleGuardHits)
	}
	if !c.progs[0].drainedMain() || c.ProgSim(0).MainRetired != stores+2 {
		t.Fatalf("the short program retired %d instructions, halted %t", c.ProgSim(0).MainRetired, c.progs[0].halted)
	}

	c, err = NewMulti(cfg, []ProgSpec{shortSpec(), shortSpec()})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(20_000)
	if !c.Done() || c.ProgSim(0).CycleGuardHits != 0 {
		t.Fatalf("two halted programs: Run returned with Done=%t, %d cycle-guard hits", c.Done(), c.ProgSim(0).CycleGuardHits)
	}
}
