package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
)

// miniWorkload builds a small halting kernel with one slice: a scattered
// pointer chase whose node loads miss and whose payload-compare branch is
// unbiased, plus a slice that chases ahead, prefetching and predicting.
type miniWorkload struct {
	image   *asm.Image
	entry   uint64
	slices  []*slicehw.Slice
	initMem func(m *mem.Memory)
}

func buildMini(t testing.TB, iters int) miniWorkload { return buildMiniCalls(t, iters, false) }

// buildMiniCalls is buildMini; with calls set, each outer iteration also
// makes an indirect call to a leaf that returns at once, so the
// return-address stack and the indirect predictor see traffic.
func buildMiniCalls(t testing.TB, iters int, calls bool) miniWorkload {
	t.Helper()
	const (
		base   = uint64(0x1000)
		heads  = uint64(0x200000)
		arena  = uint64(0x400000)
		nLists = 64
		nPer   = 12
	)
	b := asm.NewBuilder(base)
	if calls {
		b.Br("start")
		b.Ret() // the leaf, at base+InstBytes
		b.Label("start")
		b.Li(20, int64(base+isa.InstBytes))
	}
	b.Li(27, int64(heads))
	b.I(isa.LDI, 1, 0, int32(iters))
	b.Li(25, 1<<19) // pivot
	b.Label("outer")
	if calls {
		b.Raw(isa.Inst{Op: isa.CALLR, Rd: isa.RA, Ra: 20})
	}
	b.I(isa.ADDI, 2, 2, 1)
	b.I(isa.ANDI, 2, 2, nLists-1)
	b.Label("list_loop") // fork
	b.R(isa.S8ADD, 3, 2, 27)
	b.Ld(4, 0, 3)
	b.B(isa.BEQ, 4, "next_list")
	b.Label("walk")
	b.Ld(5, 8, 4)
	b.R(isa.CMPLT, 6, 5, 25)
	b.Label("cost_branch")
	b.B(isa.BEQ, 6, "skip")
	b.I(isa.ADDI, 7, 7, 1)
	b.Label("skip")
	b.Ld(4, 0, 4)
	b.Label("latch")
	b.B(isa.BNE, 4, "walk")
	b.Label("next_list")
	b.I(isa.ADDI, 1, 1, -1)
	b.B(isa.BGT, 1, "outer")
	b.Halt()
	main := b.MustBuild()

	sb := asm.NewBuilder(0x100000)
	sb.Label("slice")
	sb.R(isa.S8ADD, 10, 2, 27)
	sb.Ld(11, 0, 10)
	sb.Label("slice_loop")
	sb.Ld(12, 8, 11)
	sb.Label("slice_pgi")
	sb.R(isa.CMPLT, 13, 12, 25)
	sb.Ld(11, 0, 11)
	// A store in slice code must be dropped by the hardware (§4.1).
	sb.St(13, 16, 10)
	sb.Label("slice_back")
	sb.Br("slice_loop")
	sliceProg := sb.MustBuild()

	sl := &slicehw.Slice{
		Name:       "mini.chase",
		ForkPC:     main.PC("list_loop"),
		SlicePC:    sliceProg.PC("slice"),
		LiveIns:    []isa.Reg{2, 27, 25},
		MaxLoops:   nPer + 4,
		LoopBackPC: sliceProg.PC("slice_back"),
		PGIs: []slicehw.PGI{{
			SlicePC:     sliceProg.PC("slice_pgi"),
			BranchPC:    main.PC("cost_branch"),
			TakenIfZero: true,
		}},
		LoopKillPC:     main.PC("latch"),
		SliceKillPC:    main.PC("next_list"),
		CoveredLoadPCs: []uint64{main.PC("walk")},
	}

	im, err := asm.NewImage(main, sliceProg)
	if err != nil {
		t.Fatal(err)
	}
	initMem := func(m *mem.Memory) {
		r := uint64(0x12345)
		next := func() uint64 { r ^= r << 13; r ^= r >> 7; r ^= r << 17; return r }
		slot := 0
		for l := 0; l < nLists; l++ {
			var prev uint64
			for k := 0; k < nPer; k++ {
				addr := arena + uint64(slot)*4096 + next()%32*64
				slot++
				if k == 0 {
					m.WriteU64(heads+uint64(l)*8, addr)
				} else {
					m.WriteU64(prev, addr)
				}
				m.WriteU64(addr+8, next()&(1<<20-1))
				prev = addr
			}
			m.WriteU64(prev, 0)
		}
	}
	return miniWorkload{image: im, entry: main.Base, slices: []*slicehw.Slice{sl}, initMem: initMem}
}

// TestSlicesPreserveArchitecturalState is the paper's central safety
// claim: "the effects of the slices are completely microarchitectural in
// nature, in no way affecting the architectural state (and hence
// correctness) of the program."
func TestSlicesPreserveArchitecturalState(t *testing.T) {
	w := buildMini(t, 300)

	m1 := mem.New()
	w.initMem(m1)
	core := MustNew(Config4Wide(), w.image, m1, w.entry, slicehw.MustTable(w.slices))
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("did not halt")
	}

	m2 := mem.New()
	w.initMem(m2)
	ref, err := RunFunctional(w.image, m2, w.entry, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < isa.NumRegs; r++ {
		if core.main.Regs[r] != ref.Regs[r] {
			t.Errorf("r%d = %#x, reference %#x", r, core.main.Regs[r], ref.Regs[r])
		}
	}
	if core.S.MainRetired != ref.Retired {
		t.Errorf("retired %d vs reference %d", core.S.MainRetired, ref.Retired)
	}
	if core.S.Forks == 0 {
		t.Error("the slice never forked — the test proved nothing")
	}
	if core.S.HelperStores == 0 {
		t.Error("the slice's store was never suppressed")
	}
}

func TestSlicesActuallyHelpMini(t *testing.T) {
	w := buildMini(t, 400)

	run := func(withSlices bool) *Core {
		m := mem.New()
		w.initMem(m)
		var core *Core
		if withSlices {
			core = MustNew(Config4Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))
		} else {
			core = MustNew(Config4Wide(), w.image, m, w.entry, nil)
		}
		core.Run(1 << 40)
		return core
	}
	base := run(false)
	sl := run(true)
	if sl.S.Cycles >= base.S.Cycles {
		t.Errorf("slices did not help: %d vs %d cycles", sl.S.Cycles, base.S.Cycles)
	}
	if sl.S.MissesCovered == 0 {
		t.Error("no misses covered")
	}
	if sl.S.PredsUsed+sl.S.PredsLateUsed == 0 {
		t.Error("no predictions matched")
	}
}

func TestHelperThreadLifecycle(t *testing.T) {
	w := buildMini(t, 50)
	m := mem.New()
	w.initMem(m)
	core := MustNew(Config4Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))
	core.Run(1 << 40)
	s := core.S
	// Helpers terminate by null-pointer exception (the chase) or the
	// iteration bound, and every context must be reclaimed by the end.
	if s.HelperFaults == 0 && s.HelperMaxIter == 0 {
		t.Error("no helper termination recorded")
	}
	for _, th := range core.threads {
		if !th.IsMain && th.Alive {
			t.Error("helper context leaked")
		}
	}
	if s.HelperFetched < s.HelperRetired {
		t.Errorf("helper fetched %d < retired %d", s.HelperFetched, s.HelperRetired)
	}
}

func TestForkIgnoredWhenContextsBusy(t *testing.T) {
	w := buildMini(t, 200)
	m := mem.New()
	w.initMem(m)
	cfg := Config4Wide()
	cfg.ThreadContexts = 2 // one main + one helper: forks must be dropped
	core := MustNew(cfg, w.image, m, w.entry, slicehw.MustTable(w.slices))
	core.Run(1 << 40)
	if core.S.ForksIgnored == 0 {
		t.Error("expected ignored forks with a single helper context")
	}
}

func TestWrongPathForksAreSquashed(t *testing.T) {
	w := buildMini(t, 400)
	m := mem.New()
	w.initMem(m)
	core := MustNew(Config4Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))
	core.Run(1 << 40)
	// The latch mispredicts at list ends; its wrong path re-enters
	// list_loop and forks, so squashed forks must appear — and the
	// machine must still be architecturally exact (checked above).
	if core.S.ForksSquashed == 0 {
		t.Error("no wrong-path forks were squashed")
	}
}

func TestSlicePredictionsOffDisablesCorrelator(t *testing.T) {
	w := buildMini(t, 200)
	m := mem.New()
	w.initMem(m)
	cfg := Config4Wide()
	cfg.SlicePredictionsOff = true
	core := MustNew(cfg, w.image, m, w.entry, slicehw.MustTable(w.slices))
	core.Run(1 << 40)
	if core.S.PredsUsed != 0 || core.S.PredsLateUsed != 0 {
		t.Error("predictions matched with SlicePredictionsOff")
	}
	if core.S.SlicePrefetches == 0 {
		t.Error("prefetching must keep working with predictions off")
	}
}

func TestEightWideWithSlices(t *testing.T) {
	w := buildMini(t, 200)
	m := mem.New()
	w.initMem(m)
	core := MustNew(Config8Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("8-wide run did not complete")
	}
	m2 := mem.New()
	w.initMem(m2)
	ref, err := RunFunctional(w.image, m2, w.entry, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if core.S.MainRetired != ref.Retired {
		t.Errorf("retired %d vs reference %d", core.S.MainRetired, ref.Retired)
	}
}
