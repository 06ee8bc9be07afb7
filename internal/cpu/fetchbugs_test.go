package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/slicehw"
)

// TestUnpredictedIndirectDefersPathPush is the regression test for the
// path-history bug: predictCtrl used to push the 0 "no prediction"
// sentinel into t.Path when the indirect predictor had no target for a
// JMP/CALLR, polluting the path every later indirect prediction and
// update keys on. The push is now deferred to resolveCtrl, which pushes
// the resolved target, so after two cold indirect jumps the thread's
// path must equal exactly PushPath(PushPath(0, tgt1), tgt2).
func TestUnpredictedIndirectDefersPathPush(t *testing.T) {
	const base = 0x1000
	// Fixed layout: every emitted instruction below is exactly one slot,
	// so the landing addresses are known before Build.
	tgt1 := uint64(base + 2*isa.InstBytes)
	tgt2 := uint64(base + 4*isa.InstBytes)
	b := asm.NewBuilder(base)
	b.I(isa.LDI, 1, 0, int32(tgt1))
	b.Jmp(1)
	b.Label("land1")
	b.I(isa.LDI, 2, 0, int32(tgt2))
	b.Jmp(2)
	b.Label("land2")
	b.Halt()
	p := b.MustBuild()
	if p.PC("land1") != tgt1 || p.PC("land2") != tgt2 {
		t.Fatalf("layout drifted: land1=%#x want %#x, land2=%#x want %#x",
			p.PC("land1"), tgt1, p.PC("land2"), tgt2)
	}
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}

	core := MustNew(Config4Wide(), im, mem.New(), base, nil)
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("core did not halt")
	}
	// Both jumps are cold (the cascaded predictor returns 0), so both
	// take the stall-until-resolution leg; each resolution must push the
	// actual target, never the 0 sentinel.
	if core.S.IndirectJumps != 2 || core.S.IndirectMisses != 2 {
		t.Fatalf("indirects %d (%d unpredicted), want 2/2",
			core.S.IndirectJumps, core.S.IndirectMisses)
	}
	want := bpred.PushPath(bpred.PushPath(0, tgt1), tgt2)
	if core.main.Path != want {
		t.Errorf("path after two unpredicted indirects = %#x, want %#x (0-sentinel pushed?)",
			core.main.Path, want)
	}
}

// TestHelperPGIStalledIsPure is the regression test for selection-order
// dependent teardown: a helper parked at a PGI whose slice instance is
// done once stopped fetching only when the selection scan happened to
// evaluate it. Teardown now happens in chooseFetchThread's one pass over
// every thread, before any candidacy check, so the helper must stop
// fetching whichever thread wins the slot: the main thread (scanned
// before it), a younger helper (scanned after it), or no thread at all
// while its own I-cache stall would keep it out of the running.
func TestHelperPGIStalledIsPure(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(core *Core, done *Thread) (want *Thread)
	}{
		{"main-wins", func(core *Core, done *Thread) *Thread {
			return core.main
		}},
		{"helper-wins", func(core *Core, done *Thread) *Thread {
			core.main.Fetching = false
			return parkHelper(t, core, false)
		}},
		{"none-wins", func(core *Core, done *Thread) *Thread {
			core.main.Fetching = false
			done.icStallUntil = core.now + 100
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildMini(t, 50)
			m := mem.New()
			w.initMem(m)
			core := MustNew(Config4Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))
			done := parkHelper(t, core, true)
			want := tc.setup(core, done)
			if got := core.chooseFetchThread(); got != want {
				t.Errorf("fetch went to %v, want %v", got, want)
			}
			if done.Fetching {
				t.Error("helper at a PGI with a done instance still fetching after selection")
			}
		})
	}
}

// parkHelper activates an idle helper context at the first PGI of the
// mini workload's slice, with a live or an already-done instance.
func parkHelper(t *testing.T, core *Core, done bool) *Thread {
	t.Helper()
	p := core.progs[0]
	s := p.sliceTable.Slices()[0]
	h := core.idleThread()
	if h == nil {
		t.Fatal("no idle helper context")
	}
	h.reset()
	h.Alive, h.Fetching = true, true
	h.prog = p
	h.PC = s.PGIs[0].SlicePC
	h.Instance = p.corr.NewInstance(s)
	if done {
		p.corr.RemoveInstance(h.Instance)
		if !h.Instance.Done() {
			t.Fatal("instance not done after removal")
		}
	}
	return h
}
