package cpu

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/isa/compiled"
	"repro/internal/mem"
	"repro/internal/slicehw"
)

// funcEngine is the execution seam of the functional warm loop: one
// architectural instruction per Step, with a full isa.Outcome. Both the
// compiled engine (compiled.Machine) and the decode-dispatch interpreter
// (interpEngine) satisfy it, so the two warm modes share the entire
// structure-touching loop and can be diffed checkpoint-for-checkpoint.
type funcEngine interface {
	PC() uint64
	Step(out *isa.Outcome) (isa.Op, error)
}

// interpEngine adapts image.At + isa.Execute to the funcEngine seam. It
// is the differential reference for the compiled engine's warm path.
type interpEngine struct {
	image *asm.Image
	ctx   funcCtx
	pc    uint64
}

func (e *interpEngine) PC() uint64 { return e.pc }

func (e *interpEngine) Step(out *isa.Outcome) (isa.Op, error) {
	in, ok := e.image.At(e.pc)
	if !ok {
		return isa.NOP, &compiled.OffImageError{PC: e.pc}
	}
	isa.Execute(in, e.pc, &e.ctx, out)
	if !out.Halt {
		e.pc = out.NextPC(e.pc)
	}
	return in.Op, nil
}

// FunctionalWarm fast-forwards through a warm region without the detailed
// pipeline: it executes instructions architecturally (one per cycle, on
// the compiled engine) and touch-warms the structures whose contents
// dominate measurement accuracy — caches, the stream prefetcher, the
// branch predictors, and the RAS — with the committed-path updates the
// detailed core would apply at retire. The result is a restorable
// Checkpoint.
//
// Faulting main-thread accesses follow the detailed core's semantics:
// architecturally the load reads zero / the store is dropped and execution
// continues, and microarchitecturally the faulting access never touches
// the cache hierarchy (the detailed core neither issues a D-cache access
// for a faulting load nor retires a faulting store through the write
// buffer).
//
// Accuracy caveats (why this is opt-in, not the default):
//   - Timing is 1 IPC by construction, so the cycle counter, LRU clocks,
//     and bus cursor in the checkpoint are compressed relative to detailed
//     warm; measurement from a functional checkpoint is *not* behavior-
//     identical, only statistically close (see the harness IPC-tolerance
//     test for the documented bound).
//   - No wrong-path execution: caches miss the pollution and prefetch
//     training that speculative fetch would have produced.
//   - No slices run, so the correlator and fork-confidence table start the
//     measurement cold (Restore accepts the nil states).
func FunctionalWarm(cfg Config, image *asm.Image, memory *mem.Memory, entry uint64, maxInsts uint64, sliceTable *slicehw.Table) (*Checkpoint, error) {
	return functionalWarm(cfg, image, memory, entry, maxInsts, sliceTable, false)
}

// FunctionalWarmInterp is FunctionalWarm on the decode-dispatch
// interpreter instead of the compiled engine. Given identical inputs the
// two must produce byte-identical checkpoints (see the equivalence test);
// it exists as the always-available differential reference for the
// compiled warm path (warm mode "functional-interp").
func FunctionalWarmInterp(cfg Config, image *asm.Image, memory *mem.Memory, entry uint64, maxInsts uint64, sliceTable *slicehw.Table) (*Checkpoint, error) {
	return functionalWarm(cfg, image, memory, entry, maxInsts, sliceTable, true)
}

func functionalWarm(cfg Config, image *asm.Image, memory *mem.Memory, entry uint64, maxInsts uint64, sliceTable *slicehw.Table, interp bool) (*Checkpoint, error) {
	// Build the core first: it owns the hierarchy/predictor geometry the
	// checkpoint must match, and its Quiesce drains the write buffer and
	// in-flight prefetches the touch-warming leaves behind.
	c, err := New(cfg.WarmConfig(), image, memory, entry, sliceTable)
	if err != nil {
		return nil, err
	}

	t := c.main
	var (
		eng funcEngine
		ma  *compiled.Machine
	)
	if interp {
		eng = &interpEngine{image: image, ctx: funcCtx{regs: &t.Regs, m: memory}, pc: entry}
	} else {
		ma = compiled.NewMachine(compiled.Cached(image), memory, entry)
		ma.SetRegs(&t.Regs)
		eng = ma
	}

	var (
		now     uint64
		retired uint64
		halted  bool
		out     isa.Outcome
	)
	for retired < maxInsts {
		pc := eng.PC()
		now++
		c.hier.FetchAccess(pc, now)
		op, err := eng.Step(&out)
		if err != nil {
			return nil, fmt.Errorf("cpu: functional warm fell off the image at %#x after %d instructions", pc, retired)
		}
		retired++

		switch {
		case out.IsMem && !out.IsStore && !out.Fault:
			c.hier.Access(out.Addr, false, cache.KindDemand, now)
		case out.IsMem && out.IsStore && !out.Fault:
			// The store already wrote memory; retire the line through the
			// write buffer, draining time forward while it is full. Each
			// drain cycle is ticked exactly once — the bottom-of-loop Tick
			// covers the cycle the retire finally lands on.
			for !c.hier.StoreRetire(out.Addr, now) {
				c.hier.Tick(now)
				now++
			}
		}

		switch {
		case op.IsCondBranch():
			// Mirror the detailed retire path: value-observing predictors see
			// the tested value first, then the direction update. The interp
			// engine shares t.Regs; the compiled machine keeps its own file,
			// so read the register back through it.
			if c.dirVal != nil {
				if in, ok := image.At(pc); ok {
					v := t.Regs[in.Ra]
					if ma != nil {
						v = ma.Reg(in.Ra)
					}
					c.dirVal.ObserveValue(pc, condOf(op), v)
				}
			}
			c.dir.Update(pc, t.Hist, out.Taken)
			t.Hist = pushHist(t.Hist, out.Taken)
		case op == isa.JMP || op == isa.CALLR:
			c.indirect.Update(pc, t.Path, out.Target)
			t.Path = bpred.PushPath(t.Path, out.Target)
		}
		if op.IsCall() {
			t.RAS.Push(pc + isa.InstBytes)
			// Nothing speculates during functional warm, so no checkpoint
			// taken before this push will ever be restored; dropping the
			// journal immediately keeps it from growing with the region.
			t.RAS.CommitAll()
		} else if op.IsRet() {
			t.RAS.Pop()
		}

		c.hier.Tick(now)
		if out.Halt {
			halted = true
			break
		}
	}

	if ma != nil {
		ma.CopyRegs(&t.Regs)
	}
	c.now = now
	c.progs[0].halted = halted
	c.S.MainRetired = retired
	t.PC = eng.PC()
	t.Fetching = !halted
	// Checkpoint quiesces first, which lands the in-flight fills and
	// prefetch arrivals the touch loop queued.
	return c.Checkpoint()
}
