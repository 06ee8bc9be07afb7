package cpu

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/progen"
	"repro/internal/wire"
)

// TestFunctionalWarmFaultSkipsHierarchy is the regression test for the
// fault-semantics bug: FunctionalWarm used to touch-warm the cache
// hierarchy with faulting main-thread accesses — installing the null page
// and unmapped lines into the L1D, which the detailed core never does (it
// neither issues a D-cache access for a faulting load nor retires a
// faulting store through the write buffer). Architecturally execution must
// still continue past the faults exactly like RunFunctional.
func TestFunctionalWarmFaultSkipsHierarchy(t *testing.T) {
	const (
		data      = uint64(0x40000)  // mapped: the control access
		nullLoad  = uint64(0x10)     // null page
		nullStore = uint64(0x400)    // null page, different L1D line
		unmapped  = uint64(0x999000) // mappable range, never mapped
	)
	p := &asm.Program{Base: 0x1000, Insts: []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: int32(data)},
		{Op: isa.LD, Rd: 2, Ra: 1, Imm: 0},                      // control: valid load
		{Op: isa.LD, Rd: 3, Ra: isa.Zero, Imm: int32(nullLoad)}, // faults
		{Op: isa.LDI, Rd: 4, Imm: int32(unmapped)},
		{Op: isa.LD, Rd: 5, Ra: 4, Imm: 0},                       // faults
		{Op: isa.ST, Rd: 1, Ra: isa.Zero, Imm: int32(nullStore)}, // faults
		{Op: isa.ADDI, Rd: 6, Ra: 3, Imm: 9},                     // proves execution continued
		{Op: isa.HALT},
	}}
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}

	warmMem := mem.New()
	warmMem.WriteU64(data, 77)
	ck, err := FunctionalWarm(Config4Wide(), im, warmMem, p.Base, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// Architectural state: identical to the pure functional run.
	refMem := mem.New()
	refMem.WriteU64(data, 77)
	ref, err := RunFunctional(im, refMem, p.Base, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.MainHalted || !ref.Halted {
		t.Fatalf("halted: warm %v, functional %v", ck.MainHalted, ref.Halted)
	}
	if ck.Regs != ref.Regs {
		t.Errorf("warm registers diverge from RunFunctional:\n warm %v\n ref  %v", ck.Regs, ref.Regs)
	}
	if got := ck.Regs[6]; got != 9 {
		t.Errorf("r6 = %d, want 9 (execution must continue past the faults)", got)
	}

	// Microarchitectural state: only the valid access may be in the L1D.
	core, err := Restore(Config4Wide(), im, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	l1d := core.Hier().L1D
	if !l1d.Probe(data) {
		t.Error("valid load's line missing from the warmed L1D")
	}
	for _, addr := range []uint64{nullLoad, nullStore, unmapped} {
		if l1d.Probe(addr) {
			t.Errorf("faulting access at %#x was installed in the L1D", addr)
		}
	}
}

// TestFunctionalWarmStoreDrainTiming is the regression test for the
// double-tick bug: the store-drain loop used to advance the cycle before
// ticking and then tick the bottom of the loop again, so the cycle the
// retire landed on was ticked twice and the first stall cycle not at all —
// draining each stalled store one cycle early. The reference below is an
// independent cycle-major replica of the documented protocol (1 IPC, the
// hierarchy ticked exactly once per cycle, a full write buffer stalling
// retirement) driven against its own hierarchy; the checkpoint's cycle
// counter and cache state must match it exactly.
func TestFunctionalWarmStoreDrainTiming(t *testing.T) {
	const data = uint64(0x40000)
	cfg := Config4Wide()
	cfg.Mem.WriteBufEntries = 1 // every second store miss stalls

	line := int32(cfg.Mem.L1Line)
	p := &asm.Program{Base: 0x1000, Insts: []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: int32(data)},
		{Op: isa.ST, Rd: isa.Zero, Ra: 1, Imm: 0}, // distinct lines: all miss
		{Op: isa.ST, Rd: isa.Zero, Ra: 1, Imm: line},
		{Op: isa.ST, Rd: isa.Zero, Ra: 1, Imm: 2 * line},
		{Op: isa.ST, Rd: isa.Zero, Ra: 1, Imm: 3 * line},
		{Op: isa.HALT},
	}}
	im, err := asm.NewImage(p)
	if err != nil {
		t.Fatal(err)
	}

	ck, err := FunctionalWarm(cfg, im, mem.New(), p.Base, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// Cycle-major replica: each loop iteration is one cycle ending in
	// exactly one Tick; an unretired store occupies subsequent cycles until
	// the write buffer accepts it, and only then does the next instruction
	// fetch.
	h := cache.NewHierarchy(cfg.WarmConfig().Mem)
	ref := NewStepper(im, mem.New(), p.Base)
	var (
		now     uint64
		stalled bool
		stallAt uint64
	)
	for cycles := 0; !ref.Halted(); cycles++ {
		if cycles > 1<<16 {
			t.Fatal("replica did not halt")
		}
		now++
		if stalled {
			if h.StoreRetire(stallAt, now) {
				stalled = false
			}
			h.Tick(now)
			continue
		}
		h.FetchAccess(ref.PC(), now)
		var out isa.Outcome
		if _, err := ref.Step(&out); err != nil {
			t.Fatalf("replica: %v", err)
		}
		switch {
		case out.IsMem && !out.IsStore && !out.Fault:
			h.Access(out.Addr, false, cache.KindDemand, now)
		case out.IsMem && out.IsStore && !out.Fault:
			if !h.StoreRetire(out.Addr, now) {
				stalled, stallAt = true, out.Addr
			}
		}
		h.Tick(now)
	}
	// Checkpointing quiesces, which drains the leftover write-buffer
	// entries one tick per cycle (stepCycle: now++ then Tick).
	for h.WriteBufLen() > 0 {
		now++
		h.Tick(now)
	}

	if ck.Now != now {
		t.Errorf("checkpoint Now = %d, replica says %d", ck.Now, now)
	}
	core, err := Restore(cfg, im, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got, want wire.Writer
	core.Hier().Save(&got)
	h.Save(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("hierarchy state diverges from the cycle-major replica")
	}
}

// TestFunctionalWarmArchStateMatchesInterp is the warm path's end-to-end
// architectural reference: over random progen programs, with maxInsts
// cutting some of them mid-flight, the checkpoint FunctionalWarm takes
// must hold exactly the PC, registers, halt state, retired count, and
// memory that the plain interpreter (RunFunctional) reaches on a fresh
// copy of the same memory: touch-warming the hierarchy and predictors must
// not perturb architectural state.
func TestFunctionalWarmArchStateMatchesInterp(t *testing.T) {
	cfg := Config4Wide()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		im, entry, init := progen.Program(rng)
		for _, maxInsts := range []uint64{137, 1 << 20} {
			mc := mem.New()
			init(mc)
			ck, err := FunctionalWarm(cfg, im, mc, entry, maxInsts)
			if err != nil {
				t.Fatalf("seed %d max %d: warm: %v", seed, maxInsts, err)
			}
			mi := mem.New()
			init(mi)
			ref, err := RunFunctional(im, mi, entry, maxInsts)
			if err != nil {
				t.Fatalf("seed %d max %d: interp: %v", seed, maxInsts, err)
			}
			if ck.PC != ref.PC {
				t.Errorf("seed %d max %d: PC %#x, interp %#x", seed, maxInsts, ck.PC, ref.PC)
			}
			if ck.Regs != ref.Regs {
				t.Errorf("seed %d max %d: registers differ:\n warm   %v\n interp %v", seed, maxInsts, ck.Regs, ref.Regs)
			}
			if ck.MainHalted != ref.Halted || ck.WarmRetired != ref.Retired {
				t.Errorf("seed %d max %d: halted=%t retired=%d, interp halted=%t retired=%d",
					seed, maxInsts, ck.MainHalted, ck.WarmRetired, ref.Halted, ref.Retired)
			}
			if !ck.Mem.Equal(mi.Snapshot()) {
				t.Errorf("seed %d max %d: memory differs from the interpreter's", seed, maxInsts)
			}
		}
	}
}
