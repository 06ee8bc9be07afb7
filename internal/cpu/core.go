package cpu

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/stats"
)

// Core is one simulated SMT processor, running one or more programs
// (progs) plus their slice helper threads.
type Core struct {
	// cfg is the configuration the core was built with; Config returns
	// a copy. The program tables, thread rings, predictors and correlator
	// are built from it at New, so a built core is never reconfigured.
	cfg  Config
	hier *cache.Hierarchy

	// The prediction seam: the core talks to the direction predictor only
	// through the bpred interfaces, so any registered predictor plugs in
	// via Config.BPred; the indirect predictor is Table 1's cascaded one.
	// dirPrime and dirVal cache the optional-hook type asserts off the hot
	// path. The tables are shared across programs; per-program PC salts
	// keep co-scheduled programs from aliasing each other's entries.
	dir      bpred.DirPredictor
	indirect *bpred.Cascaded
	dirPrime bpred.OutcomePrimed // non-nil if dir wants the actual outcome pre-Predict
	dirVal   bpred.ValueObserver // non-nil if dir learns from tested values at retire

	threads []*Thread
	// progs holds the per-program state, index-aligned with the main
	// threads (threads[i] is progs[i].main). See prog.go.
	progs []*progState
	// main and S alias progs[0] — the program of a single-programmed core,
	// and the primary program of a multi-programmed one.
	main *Thread

	window       int // dispatched, unretired instructions (all threads)
	helperWindow int // window entries held by helper threads
	seq          uint64
	now          uint64

	// Zero-alloc cycle-loop machinery (see pool.go and sched.go).
	pool       []*DynInst  // DynInst free list
	spare      []DynInst   // never-used instructions of the current chunk (pool.go)
	ready      []instRef   // seq-ordered dispatched instructions awaiting issue
	storeWoken []*DynInst  // wakeups deferred to the end of issueStage
	doneList   []instRef   // completeStage working set
	cal        [][]instRef // completion calendar (calendar.go)
	ectx       execCtx     // scratch isa.State for fetchOne

	// retiring is the instruction currently inside retireInst, set across
	// the RetireObserver call: it is popped from its ROB but not yet
	// released, and the invariant checker exempts it from liveness checks.
	retiring *DynInst
	// draining suppresses all fetch while Quiesce empties the pipeline
	// (squash recovery may re-enable a thread's Fetching flag mid-cycle;
	// the drain must still not fetch).
	draining bool

	// RetireObserver, when non-nil, receives every main-thread instruction
	// in retirement (program) order — the architecturally committed
	// stream. In multi-programmed mode all programs' retirements arrive
	// here; route by di.Thread.ProgIndex(). The callee may read the
	// instruction's fields but must not retain the pointer: the DynInst
	// returns to the pool immediately after. The differential oracle
	// attaches here.
	RetireObserver func(di *DynInst)

	// S aliases progs[0].S: the whole-run counters of the (primary)
	// program. Per-program counters of a multi-programmed core surface
	// through Snapshot().Progs.
	S *stats.Sim

	// tracer receives the core's own pipeline events (fork, squash,
	// early-resolution, retire-stall); nil when tracing is off.
	tracer stats.Tracer
}

// New builds a single-program core. sliceTable may be nil (no slice
// hardware). entry is the main thread's starting PC.
func New(cfg Config, image *asm.Image, memory *mem.Memory, entry uint64, sliceTable *slicehw.Table) (*Core, error) {
	return NewMulti(cfg, []ProgSpec{{Image: image, Mem: memory, Entry: entry, SliceTable: sliceTable}})
}

// NewMulti builds a core co-scheduling one program per spec (1 to
// MaxPrograms). Main threads occupy the first len(specs) thread contexts
// in spec order; the remaining contexts are helper slots shared by every
// program's slices. Each program gets its own memory view, slice
// hardware, and stats; the fetch policy arbitrates among the mains, each
// weighted by mainFetchWeight.
func NewMulti(cfg Config, specs []ProgSpec) (*Core, error) {
	if len(specs) < 1 {
		return nil, fmt.Errorf("cpu: need at least one program")
	}
	if len(specs) > MaxPrograms {
		return nil, fmt.Errorf("cpu: %d programs exceed the %d-slot limit", len(specs), MaxPrograms)
	}
	if cfg.ThreadContexts < len(specs) {
		return nil, fmt.Errorf("cpu: %d programs need at least %d thread contexts, config has %d",
			len(specs), len(specs), cfg.ThreadContexts)
	}
	for i, sp := range specs {
		if sp.Image == nil || sp.Mem == nil {
			return nil, fmt.Errorf("cpu: program %d: image and memory are required", i)
		}
		if _, ok := sp.Image.At(sp.Entry); !ok {
			return nil, fmt.Errorf("cpu: program %d: entry %#x is not in the image", i, sp.Entry)
		}
	}
	dir, err := bpred.NewDir(cfg.BPred)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	c := &Core{
		cfg:      cfg,
		hier:     cache.NewHierarchy(cfg.Mem),
		dir:      dir,
		indirect: bpred.NewCascaded(256, 512, 8, 10), // Table 1's 32 Kb
	}
	c.dirPrime, _ = dir.(bpred.OutcomePrimed)
	c.dirVal, _ = dir.(bpred.ValueObserver)

	for i := 0; i < cfg.ThreadContexts; i++ {
		fqCap, robCap := helperFetchQCap, cfg.HelperWindowCap
		if i < len(specs) {
			fqCap, robCap = cfg.FetchQueueCap, cfg.WindowSize
		}
		c.threads = append(c.threads, newThread(i, 64, fqCap, robCap))
	}

	for i, sp := range specs {
		p := &progState{
			index:    i,
			image:    sp.Image,
			mem:      sp.Mem,
			physBase: uint64(i) * (progPhysStride + progPhysSkew),
			predSalt: uint64(i) * progSaltStride,
			S:        stats.New(),
		}
		if sp.SliceTable != nil {
			p.sliceTable = sp.SliceTable
			p.corr = slicehw.NewCorrelator(cfg.PredQueueDepth)
			p.conf = newConfidence(4096, confidenceThreshold)
		}
		p.mainStores = newInstRing(64)
		if p.pcs, err = newPCTable(sp.Image, sp.SliceTable, &cfg); err != nil {
			return nil, fmt.Errorf("cpu: program %d: %w", i, err)
		}
		t := c.threads[i]
		t.IsMain = true
		t.Alive = true
		t.Fetching = true
		t.PC = sp.Entry
		t.prog = p
		p.main = t
		c.progs = append(c.progs, p)
	}
	c.main = c.progs[0].main
	c.S = c.progs[0].S
	// Twice the issue width: instructions issued in different cycles can
	// complete together, but more than 2x Width in one cycle is rare.
	c.cal = newCalendar(2 * cfg.Width)

	return c, nil
}

// MustNew is New that panics (static setup in tests and workloads).
func MustNew(cfg Config, image *asm.Image, memory *mem.Memory, entry uint64, st *slicehw.Table) *Core {
	c, err := New(cfg, image, memory, entry, st)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the configuration the core was built with.
func (c *Core) Config() Config { return c.cfg }

// Hier exposes the memory hierarchy (stats and tests).
func (c *Core) Hier() *cache.Hierarchy { return c.hier }

// Correlator exposes program 0's prediction correlator (stats and tests).
func (c *Core) Correlator() *slicehw.Correlator { return c.progs[0].corr }

// SliceTable exposes the slice table program 0 was built with (nil
// without slice hardware); Restore needs the same table.
func (c *Core) SliceTable() *slicehw.Table { return c.progs[0].sliceTable }

// Main exposes program 0's main thread (tests).
func (c *Core) Main() *Thread { return c.main }

// Image exposes the code image program 0 executes.
func (c *Core) Image() *asm.Image { return c.progs[0].image }

// NumPrograms returns how many programs the core co-schedules.
func (c *Core) NumPrograms() int { return len(c.progs) }

// ProgMain exposes program i's main thread.
func (c *Core) ProgMain(i int) *Thread { return c.progs[i].main }

// ProgSim exposes program i's whole-run counters.
func (c *Core) ProgSim(i int) *stats.Sim { return c.progs[i].S }

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// ResetStats zeroes all counters while keeping caches, predictors, and
// machine state warm — run a warm-up region, reset, then measure, like the
// paper's 100M-instruction warm-up. It zeroes each live counter struct
// Snapshot copies, and every program's own structs in the same loop.
func (c *Core) ResetStats() {
	stats.Zero(&c.hier.Stats)
	stats.Zero(c.hier.L1D.Counters())
	stats.Zero(c.hier.L1I.Counters())
	stats.Zero(c.hier.L2.Counters())
	stats.Zero(c.hier.PVB.Counters())
	stats.Zero(c.dir.Counters())
	stats.Zero(c.indirect.Counters())
	for _, p := range c.progs {
		stats.Zero(p.S)
		stats.Zero(&p.main.RAS.Stats)
		if p.corr != nil {
			stats.Zero(&p.corr.Stats)
		}
		// The reset replaced the Sim.Static map; drop the cached pointers
		// into the old one.
		p.pcs.clearStats()
	}
}

// Snapshot copies every live counter struct into one machine-readable
// Snapshot — the unit of export for -json output and the harness rows.
// The sections are program 0's view; a multi-programmed core
// additionally fills Progs with each program's whole-run counters
// (slot-aligned). Single-program snapshots leave Progs nil, so their
// serialized form is unchanged.
func (c *Core) Snapshot() stats.Snapshot {
	snap := stats.Snapshot{
		Sim:   *c.S.Clone(),
		Hier:  c.hier.Stats,
		L1D:   c.hier.L1D.Stats(),
		L1I:   c.hier.L1I.Stats(),
		L2:    c.hier.L2.Stats(),
		PVB:   c.hier.PVB.Stats(),
		Bpred: stats.BpredStats{RAS: c.main.RAS.Stats},
	}
	snap.Bpred.Set(c.dir.Counters())
	snap.Bpred.Set(c.indirect.Counters())
	if corr := c.progs[0].corr; corr != nil {
		snap.Corr = corr.Stats
	}
	if len(c.progs) > 1 {
		snap.Progs = make([]stats.Sim, len(c.progs))
		for i, p := range c.progs {
			snap.Progs[i] = *p.S.Clone()
		}
	}
	return snap
}

// SetTracer routes structured telemetry events from the core, the memory
// hierarchy, and each program's correlator to t. The correlator has no
// clock, so its events are wrapped to stamp the current cycle. Pass nil
// to disable.
func (c *Core) SetTracer(t stats.Tracer) {
	c.tracer = t
	c.hier.Tracer = t
	for _, p := range c.progs {
		if p.corr == nil {
			continue
		}
		if t == nil {
			p.corr.Tracer = nil
		} else {
			p.corr.Tracer = stats.FuncTracer(func(e stats.Event) {
				e.Cycle = c.now
				t.Emit(e)
			})
		}
	}
}

// Tracer returns the tracer installed by SetTracer (nil when tracing is
// off). The oracle emits its divergence events through it.
func (c *Core) Tracer() stats.Tracer { return c.tracer }

// emit sends one core pipeline event, stamping the current cycle. A nil
// tracer makes this a branch-predictable no-op on the hot path.
func (c *Core) emit(e stats.Event) {
	if c.tracer != nil {
		e.Cycle = c.now
		c.tracer.Emit(e)
	}
}

// Done reports whether every program's main thread has halted and
// drained, including the write buffer: retired stores still draining into
// the hierarchy would otherwise leave final cache stats dependent on
// where the run stopped.
func (c *Core) Done() bool {
	for _, p := range c.progs {
		if !p.drainedMain() {
			return false
		}
	}
	return c.hier.WriteBufLen() == 0
}

// Run simulates until every program has retired maxMainRetired more
// instructions (counted from the last ResetStats), or the whole machine
// has halted and drained, or the cycle guard fired. A program that
// reaches its target keeps running — and contending — until the slowest
// one catches up. A co-scheduled program that halts short of the target
// therefore holds the run until every program has halted and drained.
// It returns program 0's stats; per-program counters come from Snapshot
// or ProgSim.
func (c *Core) Run(maxMainRetired uint64) *stats.Sim {
	start := c.now
	for {
		if c.runTargetMet(maxMainRetired) {
			break
		}
		if c.now-start >= c.cfg.MaxCycles {
			// A truncated region is not a completed one; count the hit so
			// harness rows and slicesim can surface it instead of silently
			// reporting a partial simulation.
			for _, p := range c.progs {
				p.S.CycleGuardHits++
			}
			break
		}
		c.stepCycle()
	}
	return c.S
}

// runTargetMet reports whether Run's stopping condition holds: the
// machine fully drained, or every program retired its share.
func (c *Core) runTargetMet(max uint64) bool {
	if c.Done() {
		return true
	}
	for _, p := range c.progs {
		if p.S.MainRetired < max {
			return false
		}
	}
	return true
}

// stepCycle advances the machine one cycle through every pipeline stage.
func (c *Core) stepCycle() {
	c.now++
	for _, p := range c.progs {
		p.S.Cycles++
	}
	c.retireStage()
	c.completeStage()
	c.issueStage()
	c.dispatchStage()
	c.fetchStage()
	c.hier.Tick(c.now)
	c.reapHelpers()
}

// dispatchStage moves fetched instructions into the window once they have
// traversed the front end (frontLatency cycles) and space exists.
func (c *Core) dispatchStage() {
	for _, t := range c.threads {
		if !t.Alive {
			continue
		}
		for t.fetchq.len() > 0 {
			if c.window >= c.cfg.WindowSize {
				break
			}
			if !t.IsMain && c.helperWindow >= c.cfg.HelperWindowCap {
				break // helpers may not starve the main threads of window space
			}
			di := t.fetchq.front()
			if di.FetchCycle+frontLatency > c.now {
				break
			}
			t.fetchq.popFront()
			di.Dispatched = true
			di.DispatchCycle = c.now
			t.rob.pushBack(di)
			c.window++
			if !t.IsMain {
				c.helperWindow++
			}
			// Issue runs before dispatch in the cycle loop, so an
			// instruction entering here ready is visible next cycle —
			// exactly when the old per-cycle scan would first see it.
			if di.waitCount == 0 {
				c.readyInsert(di)
			}
		}
	}
}

// reapHelpers frees helper contexts that stopped fetching and drained.
// Their correlator instances persist: predictions outlive the thread.
func (c *Core) reapHelpers() {
	for _, t := range c.threads {
		if t.Alive && !t.IsMain && !t.Fetching && t.inflight() == 0 {
			t.Alive = false
		}
	}
}

// idleThread returns a free helper context, or nil.
func (c *Core) idleThread() *Thread {
	for _, t := range c.threads {
		if !t.IsMain && !t.Alive {
			return t
		}
	}
	return nil
}

func pushHist(hist uint64, taken bool) uint64 {
	if taken {
		return hist<<1 | 1
	}
	return hist << 1
}
