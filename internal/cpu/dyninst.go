package cpu

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/slicehw"
)

// DynInst is one in-flight dynamic instruction. It carries the functional
// outcome (computed at fetch), the prediction state and checkpoints needed
// for recovery, the undo log for its architectural side effects, the
// correlator references for exact slice-hardware rollback, and its
// timing.
type DynInst struct {
	Thread *Thread
	Static *isa.Inst
	// row is the instruction's program-table entry (pctable.go), resolved
	// at fetch; issue and retire read its per-PC facts through it.
	row *pcRow
	PC  uint64
	// Seq is the Von Neumann number: a global fetch-order sequence number
	// used for ordering and squash-range identification (§5.2).
	Seq uint64

	Out isa.Outcome

	// Control-flow prediction.
	PredTaken  bool
	PredTarget uint64
	// NoTargetPred marks an indirect branch the predictor had no target
	// for; fetch stalls until it resolves.
	NoTargetPred bool
	Mispredicted bool
	// HistBefore/PathBefore are the history registers the prediction was
	// made with (for training at retire).
	HistBefore uint64
	PathBefore uint64
	// CondVal is the value a main-thread conditional branch tested,
	// captured at fetch for value-predictor training at retire. Written
	// and read only when the direction predictor observes values
	// (Core.dirVal != nil), so it needs no pool scrub.
	CondVal uint64
	// Checkpoints of the speculative front-end state *after* this
	// instruction, restored when a squash rewinds to it.
	HistAfter uint64
	PathAfter uint64
	RASAfter  bpred.RASState
	LoopAfter int // helper back-edge count after this instruction

	// Correlator interaction (exact undo on squash).
	UsedPred     slicehw.PredRef
	UsedOverride bool
	KillRecs     []*slicehw.KillRecord
	// AllocPred is the prediction a helper's PGI allocated at fetch (its
	// row's pgi names the PGI); the PGI's value fills it at completion.
	AllocPred slicehw.PredRef

	// Undo log for the functional side effects.
	undoRegValid bool
	undoReg      isa.Reg
	undoRegVal   uint64
	undoMemValid bool
	undoMemAddr  uint64
	undoMemSize  int
	undoMemVal   uint64
	prevWriter   instRef // lastWriter[dest] before this instruction

	// Incremental-scheduler state. waitCount is the number of outstanding
	// wakeups (register producers + undisambiguated older stores); waiters
	// are the younger instructions subscribed to this one's completion (or,
	// for stores, issue), dead ones included until the wakeup skips them;
	// inReady marks membership in the core's ready list.
	waitCount int
	waiters   []instRef
	inReady   bool

	// Timing.
	FetchCycle    uint64
	CompleteCycle uint64
	Dispatched    bool
	Issued        bool
	Completed     bool
	Squashed      bool
	Retired       bool

	// PerfectLoad marks loads served at L1-hit latency by the limit-study
	// modes.
	PerfectLoad bool
	MemResult   cache.Result
	// forwarded marks loads satisfied by an in-flight store.
	forwarded bool
}

// actualNextPC returns the architecturally correct next PC.
func (d *DynInst) actualNextPC() uint64 { return d.Out.NextPC(d.PC) }

// predictedNextPC returns where fetch went after this instruction.
func (d *DynInst) predictedNextPC() uint64 {
	if d.Static.IsCtrl() && d.PredTaken {
		return d.PredTarget
	}
	return d.PC + isa.InstBytes
}
