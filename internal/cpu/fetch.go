package cpu

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/slicehw"
	"repro/internal/stats"
)

// fetchStage selects one thread per cycle with an ICOUNT-like policy
// biased toward the main threads (§4.1) and fetches up to FetchWidth
// instructions along the predicted path, past taken branches (Table 1).
// Each instruction is functionally executed as it is fetched.
func (c *Core) fetchStage() {
	if c.draining {
		return // Quiesce: drain in-flight work without fetching anything new
	}
	if t := c.chooseFetchThread(); t != nil {
		c.fetchFrom(t)
	}
}

func (c *Core) fetchFrom(t *Thread) {
	p := t.prog
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if !t.Fetching || t.fetchq.len() >= c.fetchQCap(t) {
			return
		}
		if t.icStallUntil > c.now {
			return
		}
		pc := t.PC
		// A nonzero icStallUntil here means the miss stall this thread
		// slept on has expired: the fill it paid for has arrived. Re-probe
		// normally (hits keep the LRU honest), but if the line was evicted
		// during the stall — co-scheduled programs or helpers thrashing the
		// set — the arrived fill still delivers this one fetch, MSHR-style.
		// Without that guarantee, three or more programs whose hot lines
		// alias in the 2-way I-cache can starve each other forever, every
		// retry re-missing and re-stalling.
		fillArrived := t.icStallUntil != 0
		t.icStallUntil = 0
		if lat := c.hier.FetchAccess(p.physAddr(pc), c.now); lat > 0 && !fillArrived {
			t.icStallUntil = c.now + lat
			return
		}
		r := p.pcs.at(pc)
		if r == nil {
			// Fetch ran off the code image (a wrong path, or a slice
			// falling off its end). Stop; a squash will restore Fetching.
			t.Fetching = false
			return
		}
		// Slice lifecycle at the PGI: a helper whose instance is done (its
		// slice kill fired) terminates — later predictions would misalign
		// the queue. A live helper stalls while the queue is full rather
		// than dropping the prediction, for the same reason.
		if !t.IsMain && r.pgi != nil {
			if t.Instance.Done() {
				t.Fetching = false
				return
			}
			if !p.corr.CanAllocate(r.pgi.PGI.BranchPC) {
				return
			}
		}
		c.fetchOne(t, r, pc)
	}
}

// fetchQCap returns the fetch-queue capacity for a thread.
func (c *Core) fetchQCap(t *Thread) int {
	if t.IsMain {
		return c.cfg.FetchQueueCap
	}
	return helperFetchQCap
}

// chooseFetchThread implements the biased ICOUNT policy, arbitrating
// among every program's main thread and the helpers. A thread that cannot
// actually fetch this cycle (e.g. a helper stalled at a PGI whose
// prediction queue is full) must not win the slot — it would starve the
// main threads, whose kills are what drain that queue. Each main thread
// weighs mainFetchWeight, each helper 1; on a score tie a main thread
// beats a helper, and among equal-scored mains the lowest thread index
// (scan order) wins, keeping multi-program arbitration deterministic.
//
// The same pass looks up each fetching helper's next PC once. A helper
// parked at a PGI whose slice instance is already done (its kill fired;
// further predictions would misalign the queue) stops fetching there,
// before any candidacy check and for every thread in index order, so
// teardown never depends on which thread wins.
func (c *Core) chooseFetchThread() *Thread {
	var best *Thread
	bestScore := 0.0
	for _, t := range c.threads {
		if !t.Alive || !t.Fetching {
			continue
		}
		var pgi *slicehw.PGIRef
		if !t.IsMain {
			if r := t.prog.pcs.at(t.PC); r != nil {
				pgi = r.pgi // nil when predictions are off
			}
			if pgi != nil && t.Instance.Done() {
				t.Fetching = false
				continue
			}
		}
		if t.icStallUntil > c.now || t.fetchq.len() >= c.fetchQCap(t) {
			continue
		}
		if pgi != nil && !t.prog.corr.CanAllocate(pgi.PGI.BranchPC) {
			continue
		}
		w := 1.0
		if t.IsMain {
			w = mainFetchWeight
		}
		score := float64(t.inflight()) / w
		if best == nil || score < bestScore || (score == bestScore && t.IsMain && !best.IsMain) {
			best, bestScore = t, score
		}
	}
	return best
}

// fetchOne fetches, functionally executes, and predicts the instruction
// of row r at pc.
func (c *Core) fetchOne(t *Thread, r *pcRow, pc uint64) {
	p := t.prog
	in := r.inst
	di := c.allocInst()
	di.Thread, di.Static, di.row, di.PC, di.Seq, di.FetchCycle = t, in, r, pc, c.seq, c.now
	c.seq++

	if t.IsMain {
		p.S.MainFetched++
		c.sliceHooksAtFetch(di)
	} else {
		p.S.HelperFetched++
		if r.pgi != nil {
			di.AllocPred = p.corr.Allocate(t.Instance, r.pgi.PGI.BranchPC)
		}
		// Helper-thread loop accounting against the slice's iteration
		// bound (§3.2, slice termination).
		if t.Slice != nil && pc == t.Slice.LoopBackPC {
			t.LoopCount++
			if t.LoopCount >= t.Slice.MaxLoops && t.Slice.MaxLoops > 0 {
				p.S.HelperMaxIter++
				t.Fetching = false // this back edge is the last
			}
		}
	}

	// Functional execution against the speculative state. Helper threads
	// never store (§4.1): slices affect only microarchitectural state.
	if !t.IsMain && in.IsStore() {
		p.S.HelperStores++
		di.Out = isa.Outcome{}
	} else {
		c.ectx = execCtx{c, t, di}
		isa.Execute(in, pc, &c.ectx, &di.Out)
	}

	// Register dependences and writer bookkeeping. Producers are
	// subscribed to (sched.go) rather than polled: they wake this
	// instruction at completion.
	var srcs [3]isa.Reg
	for _, src := range srcs[:in.SourcesInto(&srcs)] {
		if w := t.lastWriter[src].live(); w != nil && !w.Completed {
			c.subscribe(di, w)
		}
	}
	if dest, ok := in.Dest(); ok {
		di.prevWriter = t.lastWriter[dest]
		t.lastWriter[dest] = di.ref()
	}
	if t.IsMain {
		if in.IsStore() {
			t.pendingStores = append(t.pendingStores, di)
			if di.undoMemValid {
				p.noteMainStore(di)
			}
		} else if in.IsLoad() {
			// Real disambiguation: subscribe to every older in-flight
			// store; each wakes the load when its address generates.
			for _, s := range t.pendingStores {
				c.subscribe(di, s)
			}
		}
	}

	// Control flow: predict, steer fetch, checkpoint.
	nextPC := pc + isa.InstBytes
	if in.IsCtrl() {
		nextPC = c.predictCtrl(t, di)
	} else if di.Out.Halt {
		t.Fetching = false
	} else if di.Out.Fault && !t.IsMain {
		// Exceptions terminate slices (§3.2) — how pointer-chasing
		// slices stop at a null dereference.
		p.S.HelperFaults++
		t.Fetching = false
	}

	di.HistAfter = t.Hist
	di.PathAfter = t.Path
	di.RASAfter = t.RAS.Mark()
	di.LoopAfter = t.LoopCount

	t.PC = nextPC
	t.fetchq.pushBack(di)
}

// sliceHooksAtFetch services the slice table CAMs for a main-thread fetch:
// forks and prediction kills (§4.2, §5.1).
func (c *Core) sliceHooksAtFetch(di *DynInst) {
	h := di.row.hooks
	if h == nil {
		return
	}
	p := di.Thread.prog
	for _, s := range h.forks {
		c.fork(di, s)
	}
	for _, s := range h.loopKills {
		if rec := p.corr.KillLoop(s); rec != nil {
			di.KillRecs = append(di.KillRecs, rec)
		}
	}
	for _, s := range h.sliceKills {
		if rec := p.corr.KillSlice(s); rec != nil {
			di.KillRecs = append(di.KillRecs, rec)
		}
	}
}

// fork activates a helper context for slice s, copying the live-in
// registers from the forking main thread's speculative state (the
// register communication of §4.3). The helper joins the forker's program:
// it reads that program's memory view and feeds that program's
// correlator. If no context is idle the fork is ignored.
func (c *Core) fork(di *DynInst, s *slicehw.Slice) {
	p := di.Thread.prog
	// §6.3: gate the fork with confidence — don't pay slice overhead for
	// problem instructions that are currently behaving well.
	if c.cfg.ConfidenceGatedForks && !p.sliceWorthForking(s) {
		p.S.ForksGated++
		c.emit(stats.Event{Kind: stats.EvForkGated, PC: di.PC, Slice: s.Index})
		return
	}
	h := c.idleThread()
	if h == nil {
		p.S.ForksIgnored++
		c.emit(stats.Event{Kind: stats.EvForkIgnored, PC: di.PC, Slice: s.Index})
		return
	}
	p.S.Forks++
	c.emit(stats.Event{Kind: stats.EvFork, PC: di.PC, Slice: s.Index, Addr: s.SlicePC})
	h.reset()
	h.Alive = true
	h.Fetching = true
	h.PC = s.SlicePC
	h.Slice = s
	h.prog = p
	h.forkSeq = di.Seq
	h.Instance = p.corr.NewInstance(s)
	for _, r := range s.LiveIns {
		h.Regs[r] = di.Thread.Regs[r]
	}
}

// predictCtrl predicts a fetched control instruction and returns the next
// fetch PC. It maintains speculative history, path, and RAS state. Shared
// predictor tables are indexed through the program's PC salt so
// co-scheduled programs at identical virtual PCs do not alias.
func (c *Core) predictCtrl(t *Thread, di *DynInst) uint64 {
	p := t.prog
	in := di.Static
	pc := di.PC

	switch {
	case in.IsCondBranch():
		actual := di.Out.Taken
		var pred bool
		switch {
		case t.IsMain && di.row.perfectBranch:
			pred = actual
		case t.IsMain:
			if c.dirPrime != nil {
				// Perfect-style predictors see the actual outcome the
				// execute-at-fetch core already knows.
				c.dirPrime.PrimeOutcome(actual)
			}
			if c.dirVal != nil {
				// Capture the value the branch tested for retirement-time
				// value training. CondVal needs no pool scrub: it is read at
				// retire only when dirVal is set, under which it is always
				// written here first.
				di.CondVal = t.Regs[in.Ra]
			}
			fallback := c.dir.Predict(p.saltPC(pc), t.Hist)
			pred = fallback
			if p.corr != nil {
				pr, dir, override := p.corr.Lookup(pc, fallback, di)
				di.UsedPred = pr
				di.UsedOverride = override
				pred = dir
			}
		default:
			// Helper threads use static prediction: backward taken,
			// forward not taken. They never touch the shared tables.
			pred = in.Imm < 0
		}
		di.PredTaken = pred
		di.PredTarget = in.BranchTarget(pc) // perfect BTB for direct branches
		di.Mispredicted = pred != actual
		di.HistBefore = t.Hist
		t.Hist = pushHist(t.Hist, pred)

	case in.Op == isa.BR:
		// Direct, unconditional: perfect with the perfect BTB.
		di.PredTaken = true
		di.PredTarget = di.Out.Target

	case in.Op == isa.CALL:
		di.PredTaken = true
		di.PredTarget = di.Out.Target
		t.RAS.Push(pc + isa.InstBytes)

	case in.Op == isa.RET:
		di.PredTaken = true
		di.PredTarget = t.RAS.Pop()
		di.Mispredicted = di.PredTarget != di.Out.Target

	case in.Op == isa.JMP || in.Op == isa.CALLR:
		di.PathBefore = t.Path
		var pred uint64
		if t.IsMain && di.row.perfectBranch {
			pred = di.Out.Target
		} else if t.IsMain {
			pred = c.indirect.Predict(p.saltPC(pc), t.Path)
		} else {
			pred = di.Out.Target // helpers: slices avoid indirects
		}
		di.PredTaken = true
		di.PredTarget = pred
		if pred == 0 {
			// No prediction available: fetch stalls until resolution. The
			// path-history push is deferred to resolveCtrl — pushing the 0
			// sentinel here would pollute the path every later indirect
			// prediction keys on with a value no resolved target matches.
			di.NoTargetPred = true
			t.waitResolve = di
			t.Fetching = false
		} else {
			di.Mispredicted = pred != di.Out.Target
			t.Path = bpred.PushPath(t.Path, pred)
		}
		if in.Op == isa.CALLR {
			t.RAS.Push(pc + isa.InstBytes)
		}
	}
	return di.predictedNextPC()
}
