package cpu

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/slicehw"
)

// Thread is one hardware context. The main thread runs the program; helper
// contexts run speculative slices. Regs is the *speculative* architectural
// state maintained at fetch by the execute-at-fetch model; squashes rewind
// it through the undo logs.
type Thread struct {
	ID     int
	IsMain bool
	Alive  bool
	// Fetching is false once the thread stopped issuing new fetches
	// (HALT, slice termination, or waiting on an unpredicted indirect
	// target). Squashes may re-enable it.
	Fetching bool

	PC   uint64
	Regs [isa.NumRegs]uint64

	// prog is the program this thread serves: its own for a main thread,
	// the forking main's for a helper. Set at New (mains) and at fork
	// (helpers); never nil for a live thread.
	prog *progState

	// Speculative front-end state.
	Hist uint64
	Path uint64
	RAS  *bpred.RAS

	fetchq     instRing
	rob        instRing
	lastWriter [isa.NumRegs]instRef
	// pendingStores are fetched-but-unissued stores (address unknown) for
	// load disambiguation.
	pendingStores []*DynInst

	// waitResolve is the unpredicted indirect branch fetch is stalled on.
	waitResolve *DynInst

	// icStallUntil stalls fetch on an instruction-cache miss.
	icStallUntil uint64

	// Helper-thread state. forkSeq is the Seq of the main-thread
	// instruction that forked this context; squashing that instruction
	// squashes the helper.
	Slice     *slicehw.Slice
	Instance  slicehw.InstRef
	LoopCount int
	forkSeq   uint64
}

func newThread(id int, rasEntries, fetchqCap, robCap int) *Thread {
	return &Thread{
		ID:     id,
		RAS:    bpred.NewRAS(rasEntries),
		fetchq: newInstRing(fetchqCap),
		rob:    newInstRing(robCap),
	}
}

// inflight returns the thread's in-flight instruction count (ICOUNT).
func (t *Thread) inflight() int { return t.fetchq.len() + t.rob.len() }

// ProgIndex returns the program slot this thread serves (a helper reports
// its forker's program). RetireObserver callbacks route multi-programmed
// retirement streams by it.
func (t *Thread) ProgIndex() int {
	if t.prog == nil {
		return 0
	}
	return t.prog.index
}

// reset clears the context for reuse as a helper.
func (t *Thread) reset() {
	t.Regs = [isa.NumRegs]uint64{}
	t.Hist, t.Path = 0, 0
	t.fetchq.clear()
	t.rob.clear()
	t.lastWriter = [isa.NumRegs]instRef{}
	t.pendingStores = t.pendingStores[:0]
	t.waitResolve = nil
	t.icStallUntil = 0
	t.Slice = nil
	t.Instance = slicehw.InstRef{}
	t.LoopCount = 0
}

// execCtx adapts a (core, thread, dyninst) triple to isa.State, recording
// undo information on the instruction as side effects happen. The core owns
// one scratch instance (Core.ectx): passing its pointer to isa.Execute
// avoids boxing a fresh struct into the interface per fetched instruction.
type execCtx struct {
	c  *Core
	t  *Thread
	di *DynInst
}

func (e *execCtx) Reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return e.t.Regs[r]
}

func (e *execCtx) SetReg(r isa.Reg, v uint64) {
	if r == isa.Zero {
		return
	}
	e.di.undoRegValid = true
	e.di.undoReg = r
	e.di.undoRegVal = e.t.Regs[r]
	e.t.Regs[r] = v
}

func (e *execCtx) Load(addr uint64, size int) (uint64, bool) {
	if !e.t.IsMain {
		// Helper threads see the *committed* memory image of their own
		// program: a real SMT's store buffer is private to the main thread
		// until retirement, so slices never observe wrong-path stores
		// (which would poison their predictions and prefetches).
		return e.t.prog.committedRead(addr, size)
	}
	return e.t.prog.mem.Read(addr, size)
}

func (e *execCtx) Store(addr uint64, size int, v uint64) bool {
	m := e.t.prog.mem
	old, _ := m.Read(addr, size)
	e.di.undoMemValid = true
	e.di.undoMemAddr = addr
	e.di.undoMemSize = size
	e.di.undoMemVal = old
	return m.Write(addr, size, v)
}

// undo reverses the functional side effects of one instruction. Callers
// must undo instructions youngest-first within a thread.
func (d *DynInst) undo(c *Core) {
	if d.undoMemValid {
		d.Thread.prog.mem.Write(d.undoMemAddr, d.undoMemSize, d.undoMemVal)
		d.undoMemValid = false
	}
	if d.undoRegValid {
		d.Thread.Regs[d.undoReg] = d.undoRegVal
		d.undoRegValid = false
	}
	if dest, ok := d.Static.Dest(); ok && d.Thread.lastWriter[dest] == d.ref() {
		d.Thread.lastWriter[dest] = d.prevWriter
	}
}
