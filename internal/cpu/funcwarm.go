package cpu

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
)

// FunctionalWarm fast-forwards through a warm region without the detailed
// pipeline: it steps the functional model (a Stepper, one instruction per
// cycle) and touch-warms the structures whose contents dominate
// measurement accuracy — caches, the stream prefetcher, the branch
// predictors, and the RAS — with the committed-path updates the detailed
// core would apply at retire. The result is a restorable Checkpoint.
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
//   - No slices run, so the core is built without slice hardware and the
//     checkpoint holds no correlator or fork-confidence table: a restored
//     core with slice hardware starts the measurement with them cold.
func FunctionalWarm(cfg Config, image *asm.Image, memory *mem.Memory, entry uint64, maxInsts uint64) (*Checkpoint, error) {
	// Build the core first: it owns the hierarchy/predictor geometry the
	// checkpoint must match, and its Quiesce drains the write buffer and
	// in-flight prefetches the touch-warming leaves behind.
	c, err := New(cfg.WarmConfig(), image, memory, entry, nil)
	if err != nil {
		return nil, err
	}

	t := c.main
	s := NewStepper(image, memory, entry)
	s.SetRegs(&t.Regs)

	var (
		now     uint64
		retired uint64
		out     isa.Outcome
	)
	for retired < maxInsts && !s.Halted() {
		pc := s.PC()
		now++
		c.hier.FetchAccess(pc, now)
		in, err := s.Step(&out)
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
		case in.IsCondBranch():
			// Mirror the detailed retire path: value-observing predictors see
			// the tested value first, then the direction update. A branch
			// writes no register, so the stepper still holds the tested one.
			if c.dirVal != nil {
				c.dirVal.ObserveValue(pc, condOf(in.Op), s.Reg(in.Ra))
			}
			c.dir.Update(pc, t.Hist, out.Taken)
			t.Hist = pushHist(t.Hist, out.Taken)
		case in.Op == isa.JMP || in.Op == isa.CALLR:
			c.indirect.Update(pc, t.Path, out.Target)
			t.Path = bpred.PushPath(t.Path, out.Target)
		}
		if in.IsCall() {
			t.RAS.Push(pc + isa.InstBytes)
			// Nothing speculates during functional warm, so no checkpoint
			// taken before this push will ever be restored; dropping the
			// journal immediately keeps it from growing with the region.
			t.RAS.CommitAll()
		} else if in.IsRet() {
			t.RAS.Pop()
		}

		c.hier.Tick(now)
	}

	s.CopyRegs(&t.Regs)
	c.now = now
	c.progs[0].halted = s.Halted()
	c.S.MainRetired = retired
	t.PC = s.PC()
	t.Fetching = !s.Halted()
	// Checkpoint quiesces first, which lands the in-flight fills and
	// prefetch arrivals the touch loop queued.
	return c.Checkpoint()
}
