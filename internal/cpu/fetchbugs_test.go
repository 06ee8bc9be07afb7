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

// TestHelperPGIStalledIsPure is the regression test for the
// selection-predicate side effect: helperPGIStalled used to clear
// t.Fetching when it found a done slice instance, so which thread the
// selection scan visited first decided when teardown happened. The
// predicate must report the stall without touching the thread; the
// hoisted retireDoneHelpers pass owns teardown.
func TestHelperPGIStalledIsPure(t *testing.T) {
	w := buildMini(t, 50)
	m := mem.New()
	w.initMem(m)
	core := MustNew(Config4Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))
	p := core.progs[0]
	s := p.sliceTable.Slices()[0]

	// Park a helper at the slice's PGI with an already-dead instance —
	// the state the teardown pass exists for.
	h := core.idleThread()
	if h == nil {
		t.Fatal("no idle helper context")
	}
	h.reset()
	h.Alive, h.Fetching = true, true
	h.prog = p
	h.PC = s.PGIs[0].SlicePC
	h.Instance = p.corr.NewInstance(s)
	p.corr.RemoveInstance(h.Instance)
	if !h.Instance.Done() {
		t.Fatal("instance not done after removal")
	}

	if !core.helperPGIStalled(h) {
		t.Error("done instance at a PGI must report stalled")
	}
	if !h.Fetching {
		t.Error("helperPGIStalled cleared t.Fetching — selection predicate has a side effect again")
	}
	// Calling it repeatedly must be idempotent on thread state.
	core.helperPGIStalled(h)
	if !h.Fetching {
		t.Error("second predicate call mutated the thread")
	}

	core.retireDoneHelpers()
	if h.Fetching {
		t.Error("retireDoneHelpers did not retire the done helper")
	}
}
