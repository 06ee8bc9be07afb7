package oracle_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/progen"
	"repro/internal/slicehw"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// buildPair returns a core and an attached oracle over the same program
// with independently initialized memories.
func buildPair(t *testing.T, seed int64, opt oracle.Options) (*cpu.Core, *oracle.Oracle) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	im, entry, init := progen.Program(rng)
	coreMem := mem.New()
	init(coreMem)
	core := cpu.MustNew(cpu.Config4Wide(), im, coreMem, entry, nil)
	orcMem := mem.New()
	init(orcMem)
	o := oracle.New(im, orcMem, entry, opt)
	o.Attach(core)
	return core, o
}

// TestOracleInjectedFaults proves the oracle's detection latency: each
// class of injected corruption — a flipped register write, a dropped
// store, a skewed branch target — must be caught at the retirement where
// it happens (the dropped store at the very next one, as a PC mismatch).
func TestOracleInjectedFaults(t *testing.T) {
	type fault struct {
		name     string
		match    func(di *cpu.DynInst) bool
		mutate   func(d *cpu.DynInst) // nil = drop the retirement entirely
		wantKind string
	}
	faults := []fault{
		{
			name:     "flip-reg-write",
			match:    func(di *cpu.DynInst) bool { return di.Out.WroteReg },
			mutate:   func(d *cpu.DynInst) { d.Out.Value ^= 0x1 },
			wantKind: "reg",
		},
		{
			// A dropped retirement never consumes an oracle index, so the
			// PC mismatch surfaces at the very next retirement under the
			// same index — still "within one retirement".
			name:     "drop-store",
			match:    func(di *cpu.DynInst) bool { return di.Static.IsStore() },
			mutate:   nil,
			wantKind: "pc",
		},
		{
			name:     "skew-branch-target",
			match:    func(di *cpu.DynInst) bool { return di.Out.IsCtrl && di.Out.Taken },
			mutate:   func(d *cpu.DynInst) { d.Out.Target += isa.InstBytes },
			wantKind: "ctrl",
		},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			core, o := buildPair(t, 3, oracle.Options{})
			faultIdx := uint64(0)
			fired := false
			// Wrap the observer Attach installed: feed the oracle a mutated
			// copy of the first matching retirement (or swallow it).
			core.RetireObserver = func(di *cpu.DynInst) {
				if !fired && f.match(di) {
					fired = true
					faultIdx = o.Retired()
					if f.mutate == nil {
						return // dropped: the oracle never sees it
					}
					d2 := *di
					f.mutate(&d2)
					o.OnRetire(&d2)
					return
				}
				o.OnRetire(di)
			}
			core.Run(1 << 40)
			if !fired {
				t.Fatal("fault never injected (no matching retirement)")
			}
			divs := o.Divergences()
			if len(divs) == 0 {
				t.Fatal("injected fault not detected")
			}
			d := divs[0]
			if d.Kind != f.wantKind {
				t.Fatalf("divergence kind = %q, want %q (%s)", d.Kind, f.wantKind, d)
			}
			if d.Index != faultIdx {
				t.Fatalf("divergence at retirement %d, fault at %d", d.Index, faultIdx)
			}
		})
	}
}

// TestOracleDivergenceEventAndReport checks the structured-telemetry and
// report plumbing on an injected fault: an EvOracleDiverge event reaches
// the core's tracer, and the error renders the workload, warm key, index,
// and delta lines.
func TestOracleDivergenceEventAndReport(t *testing.T) {
	core, o := buildPair(t, 5, oracle.Options{Workload: "fuzz", WarmKey: "wk"})
	var events []stats.Event
	core.SetTracer(stats.FuncTracer(func(e stats.Event) {
		if e.Kind == stats.EvOracleDiverge || e.Kind == stats.EvOracleInvariant {
			events = append(events, e)
		}
	}))
	fired := false
	core.RetireObserver = func(di *cpu.DynInst) {
		if !fired && di.Out.WroteReg {
			fired = true
			d2 := *di
			d2.Out.Value ^= 0xF0
			o.OnRetire(&d2)
			return
		}
		o.OnRetire(di)
	}
	core.Run(1 << 40)
	if len(events) != 1 {
		t.Fatalf("tracer saw %d oracle events, want 1", len(events))
	}
	err := o.Err()
	if err == nil {
		t.Fatal("no error after divergence")
	}
	msg := err.Error()
	for _, want := range []string{"workload=fuzz", `warm_key="wk"`, "value:", "reg divergence"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message missing %q:\n%s", want, msg)
		}
	}
	de, ok := err.(*oracle.DivergenceError)
	if !ok {
		t.Fatalf("Err() = %T, want *DivergenceError", err)
	}
	if rep := string(de.WriteReport()); !strings.Contains(rep, `"kind": "reg"`) {
		t.Errorf("JSON report missing the divergence kind:\n%s", rep)
	}
}

// TestOracleStopsAfterFirstDivergence: once the streams split, later
// retirements must not pile up cascading reports.
func TestOracleStopsAfterFirstDivergence(t *testing.T) {
	core, o := buildPair(t, 9, oracle.Options{})
	fired := false
	core.RetireObserver = func(di *cpu.DynInst) {
		if !fired && di.Out.WroteReg {
			fired = true
			d2 := *di
			d2.Out.Value ^= 0x2
			o.OnRetire(&d2)
			return
		}
		o.OnRetire(di)
	}
	core.Run(1 << 40)
	if n := len(o.Divergences()); n != 1 {
		t.Fatalf("recorded %d divergences, want exactly 1", n)
	}
	// But the retirement count keeps tracking the core.
	if o.Retired() != core.S.MainRetired {
		t.Fatalf("oracle observed %d retirements, core retired %d", o.Retired(), core.S.MainRetired)
	}
}

// strayPrediction corrupts core's correlator for good: a queued
// prediction with a consumer bound but not marked used, under a slice
// outside the core's table and a branch the program never fetches, so
// nothing in the core ever kills, consumes or frees it. Every later
// invariant sweep must flag it.
func strayPrediction(t *testing.T, core *cpu.Core) {
	t.Helper()
	corr := core.Correlator()
	if corr == nil {
		t.Fatal("core has no slice hardware")
	}
	p := corr.Allocate(corr.NewInstance(&slicehw.Slice{Name: "stray"}), 0xdead0)
	p.Live().Consumer = "stray"
	if err := core.CheckInvariants(); err == nil {
		t.Fatal("stray prediction did not break the invariants")
	}
}

// wantDropped checks an error from a run whose every invariant sweep
// failed: the report cap holds 8 divergences, and the error counts the
// rest instead of claiming "+7 more".
func wantDropped(t *testing.T, err error) {
	t.Helper()
	var de *oracle.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("Err() = %v, want a *DivergenceError", err)
	}
	if len(de.Divs) != 8 {
		t.Fatalf("recorded %d divergences, want the cap of 8", len(de.Divs))
	}
	for i, d := range de.Divs {
		if d.Kind != "invariant" {
			t.Fatalf("divergence %d is %q, want invariant", i, d.Kind)
		}
	}
	if de.Dropped == 0 {
		t.Fatal("no divergence counted past the cap; the corruption should outlast 8 sweeps")
	}
	want := fmt.Sprintf("(+%d more divergences)", 7+de.Dropped)
	if msg := err.Error(); !strings.Contains(msg, want) {
		t.Errorf("error message does not say %q:\n%s", want, msg)
	}
	var rep struct {
		Divergences []oracle.Divergence `json:"divergences"`
		Dropped     int                 `json:"dropped"`
	}
	if err := json.Unmarshal(de.WriteReport(), &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if len(rep.Divergences) != len(de.Divs) || rep.Dropped != de.Dropped {
		t.Errorf("report holds %d divergences, %d dropped; want %d, %d",
			len(rep.Divergences), rep.Dropped, len(de.Divs), de.Dropped)
	}
}

// TestOracleCountsReportsPastCap: a structural corruption that persists
// fails every invariant sweep long after the report cap is full, and the
// error must say how many sweeps failed.
func TestOracleCountsReportsPastCap(t *testing.T) {
	w := workloads.VPR()
	core := cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
	o := oracle.New(w.Image, w.NewMemory(), w.Entry, oracle.Options{Every: 100})
	o.Attach(core)
	strayPrediction(t, core)
	core.Run(20_000)
	wantDropped(t, o.Err())
}

// TestMultiOracleCountsReportsPastCap: the report cap and the count past
// it are one oracle's, over all its programs.
func TestMultiOracleCountsReportsPastCap(t *testing.T) {
	vpr, mcf := workloads.VPR(), workloads.Mcf()
	core, err := cpu.NewMulti(cpu.Config4Wide(), []cpu.ProgSpec{
		{Image: vpr.Image, Mem: vpr.NewMemory(), Entry: vpr.Entry, SliceTable: vpr.SliceTable()},
		{Image: mcf.Image, Mem: mcf.NewMemory(), Entry: mcf.Entry},
	})
	if err != nil {
		t.Fatal(err)
	}
	mo := oracle.NewMulti([]oracle.ProgSeed{
		{Image: vpr.Image, Mem: vpr.NewMemory(), Entry: vpr.Entry, Name: vpr.Name},
		{Image: mcf.Image, Mem: mcf.NewMemory(), Entry: mcf.Entry, Name: mcf.Name},
	}, oracle.Options{Every: 100})
	mo.Attach(core)
	strayPrediction(t, core)
	core.Run(20_000)
	wantDropped(t, mo.Err())
}

// TestOracleInvariantSweepLive runs several cores concurrently with tight
// invariant sweeps. Under -race this doubles as the data-race check for
// CheckInvariants against a live core (each goroutine owns its core; the
// checker itself must not mutate anything).
func TestOracleInvariantSweepLive(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			im, entry, init := progen.Program(rng)
			coreMem := mem.New()
			init(coreMem)
			core := cpu.MustNew(cpu.Config4Wide(), im, coreMem, entry, nil)
			orcMem := mem.New()
			init(orcMem)
			o := oracle.New(im, orcMem, entry, oracle.Options{Every: 16})
			o.Attach(core)
			core.Run(1 << 40)
			if err := o.VerifyFinal(core); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
}

// TestOracleZeroDestWrites pins the Zero-register contract on the
// execute-at-fetch path: instructions whose destination is the hardwired
// zero register must retire without an architectural write, and reads
// must keep seeing zero — on both models, through the oracle's diff.
func TestOracleZeroDestWrites(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.Li(2, 7)
	b.Li(3, 35)
	b.I(isa.LDI, 1, 0, 50)
	b.Label("loop")
	b.R(isa.ADD, isa.Zero, 2, 3)    // r0 = r2+r3: must be discarded
	b.I(isa.ADDI, isa.Zero, 2, 99)  // immediate form
	b.R(isa.CMOVNE, isa.Zero, 2, 3) // cmov into r0
	b.R(isa.ADD, 4, isa.Zero, 2)    // r4 = 0 + r2: reads must see zero
	b.Ld(isa.Zero, 0, 27)           // load into r0 (r27 still 0 → low mem)
	b.I(isa.ADDI, 1, 1, -1)
	b.B(isa.BGT, 1, "loop")
	b.Halt()
	p := b.MustBuild()
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}

	core := cpu.MustNew(cpu.Config4Wide(), im, mem.New(), p.Base, nil)
	o := oracle.New(im, mem.New(), p.Base, oracle.Options{Every: 8})
	o.Attach(core)
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("did not halt")
	}
	if err := o.VerifyFinal(core); err != nil {
		t.Fatal(err)
	}
	if got := core.Main().Regs[4]; got != 7 {
		t.Fatalf("r4 = %d, want 7 (a read of the zero register saw a stale write)", got)
	}
	if got := core.Main().Regs[0]; got != 0 {
		t.Fatalf("r0 = %d, want 0", got)
	}
}

// TestOracleStoreDrainAtDone pins the write-buffer drain contract: a
// burst of stores immediately before HALT must all be architecturally
// visible when Done() reports true.
func TestOracleStoreDrainAtDone(t *testing.T) {
	const arena = 0x40000
	b := asm.NewBuilder(0x1000)
	b.Li(27, arena)
	b.Li(2, 0x1111)
	for i := int32(0); i < 24; i++ {
		b.I(isa.ADDI, 2, 2, 1)
		b.St(2, i*8, 27)
	}
	b.Halt()
	p := b.MustBuild()
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}

	coreMem := mem.New()
	core := cpu.MustNew(cpu.Config4Wide(), im, coreMem, p.Base, nil)
	o := oracle.New(im, mem.New(), p.Base, oracle.Options{})
	o.Attach(core)
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("did not halt and drain")
	}
	if err := o.VerifyFinal(core); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 24; i++ {
		want := uint64(0x1111) + i + 1
		if got := coreMem.ReadU64(arena + i*8); got != want {
			t.Fatalf("mem[%#x] = %#x, want %#x (store not drained at Done)", arena+i*8, got, want)
		}
	}
}

// TestOracleCMOVUnderSquash pins conditional-move retirement across
// squashes: an unpredictable data-dependent branch precedes a chain of
// conditional moves whose destinations double as sources, so wrong-path
// execution repeatedly runs and rolls back the moves before the correct
// path refetches them. The dest-as-source old value must survive every
// rollback, or the accumulated result diverges.
func TestOracleCMOVUnderSquash(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.Li(20, 0x9E3779B97F4A7C15>>1) // xorshift state
	b.Li(5, 0)                      // accumulator
	b.I(isa.LDI, 1, 0, 400)
	b.Label("loop")
	b.I(isa.SLLI, 9, 20, 13)
	b.R(isa.XOR, 20, 20, 9)
	b.I(isa.SRLI, 9, 20, 7)
	b.R(isa.XOR, 20, 20, 9)
	b.I(isa.ANDI, 10, 20, 1) // unpredictable bit
	b.B(isa.BEQ, 10, "skip") // mispredicts often → squashes the cmovs below
	b.I(isa.ADDI, 5, 5, 3)
	b.Label("skip")
	b.I(isa.ANDI, 11, 20, 2)
	b.R(isa.CMOVNE, 5, 11, 20) // fires on bit 1: r5 = rng
	b.R(isa.CMOVEQ, 5, 11, 2)  // else r5 = r2; both read old r5 when not firing
	b.R(isa.ADD, 6, 6, 5)
	b.I(isa.ADDI, 1, 1, -1)
	b.B(isa.BGT, 1, "loop")
	b.Halt()
	p := b.MustBuild()
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}

	core := cpu.MustNew(cpu.Config4Wide(), im, mem.New(), p.Base, nil)
	o := oracle.New(im, mem.New(), p.Base, oracle.Options{Every: 64})
	o.Attach(core)
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("did not halt")
	}
	if core.S.Mispredicts == 0 {
		t.Fatal("no mispredicts — the test never exercised squash")
	}
	if err := o.VerifyFinal(core); err != nil {
		t.Fatal(err)
	}
}

// TestOracleFromCheckpointHalted: an oracle seeded from a checkpoint of a
// halted machine must flag any further retirement.
func TestOracleFromCheckpointHalted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im, entry, init := progen.Program(rng)
	m := mem.New()
	init(m)
	core := cpu.MustNew(cpu.Config4Wide(), im, m, entry, nil)
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("did not halt")
	}
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.FromCheckpoint(im, ck, oracle.Options{})
	o.OnRetire(&cpu.DynInst{PC: entry, Thread: core.Main()})
	divs := o.Divergences()
	if len(divs) != 1 || divs[0].Kind != "halt" {
		t.Fatalf("divergences = %v, want one halt report", divs)
	}
	if divs[0].AbsIndex != ck.WarmRetired {
		t.Fatalf("AbsIndex = %d, want %d (checkpoint base)", divs[0].AbsIndex, ck.WarmRetired)
	}
}

// TestOracleFromUnresolvedCheckpoint: a decoded checkpoint whose memory
// was never rebased holds only the pages that changed since the program's
// image. Seeding from it must record a "seed" divergence and fail Err,
// not lockstep against a partial image; once rebased, the same checkpoint
// seeds a clean lockstep run.
func TestOracleFromUnresolvedCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im, entry, init := progen.Program(rng)
	m := mem.New()
	init(m)
	root := m.Snapshot()
	core := cpu.MustNew(cpu.Config4Wide(), im, mem.NewFromImage(root), entry, nil)
	core.Run(300)
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cpu.DecodeCheckpoint(ck.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}

	o := oracle.FromCheckpoint(im, dec, oracle.Options{Workload: "progen"})
	divs := o.Divergences()
	if len(divs) != 1 || divs[0].Kind != "seed" || o.Err() == nil {
		t.Fatalf("divergences = %v, want one seed report", divs)
	}
	o.OnRetire(&cpu.DynInst{PC: dec.PC, Thread: core.Main()})
	if len(o.Divergences()) != 1 {
		t.Errorf("an unseeded oracle kept diffing: %v", o.Divergences())
	}

	if dec.Mem, err = dec.Mem.Rebase(root); err != nil {
		t.Fatal(err)
	}
	r, err := cpu.Restore(cpu.Config4Wide(), im, dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	o = oracle.FromCheckpoint(im, dec, oracle.Options{})
	o.Attach(r)
	r.Run(1 << 40)
	if err := o.VerifyFinal(r); err != nil {
		t.Fatalf("rebased checkpoint: %v", err)
	}
}
