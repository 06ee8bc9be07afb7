// Package bpred implements the paper's front-end predictors (Table 1): a
// 64 Kbit YAGS direction predictor, a 32 Kbit cascading indirect branch
// predictor, and a 64-entry return address stack with checkpoint repair.
// Bimodal and gshare predictors are included as ablation baselines, and
// the prediction-quality frontier adds a value predictor, a sparse
// correlation-mining predictor, and a perfect-slice upper bound.
//
// Predictors are history-external: the CPU owns the speculative global
// history and path history registers (checkpointed per in-flight branch and
// restored on squash) and passes them in, so prediction at fetch and update
// at retire see exactly the history a real front end would.
//
// Every predictor sits behind the Predictor seam: it names itself with a
// canonical spec (which the CPU config fingerprints), serializes its warm
// state as an opaque CRC-guarded blob (which the checkpoint codec stores
// without knowing the layout), and exposes a pointer to its counter
// struct, which the core resets and snapshots. New direction predictors
// plug in through the registry's factory table (registry.go); one whose
// counter type is new also adds a stats.BpredStats section and its case in
// BpredStats.Set.
package bpred

// Predictor is the seam shared by every predictor kind. The CPU and the
// checkpoint codec talk to predictors only through this interface (plus
// the DirPredictor and Cascaded Predict/Update pairs), so adding a
// direction predictor is a registry entry + config only.
type Predictor interface {
	// Spec returns the canonical spec ("name" or "name:params") naming
	// this predictor and its geometry; a direction predictor's spec
	// rebuilds it through the registry. It is embedded in config
	// fingerprints and checkpoint sections, so it must be deterministic.
	Spec() string
	// SaveState serializes the warm (non-stats) predictor state as an
	// opaque blob with an integrity trailer. LoadState on an identically
	// configured predictor must reproduce the exact state.
	SaveState() []byte
	// LoadState restores a SaveState blob, failing on corruption or a
	// geometry mismatch.
	LoadState(b []byte) error
	// Counters returns a pointer to the predictor's live counter struct
	// (e.g. *stats.YAGSStats). The core zeroes it at ResetStats, and
	// stats.BpredStats.Set copies it into the Snapshot section of its type.
	Counters() any
}

// DirPredictor predicts conditional branch directions.
type DirPredictor interface {
	Predictor
	// Predict returns the predicted direction for the branch at pc under
	// global history hist. Predict runs at fetch — possibly on the wrong
	// path — so it may mutate stats but no predictive state.
	Predict(pc, hist uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc, hist uint64, taken bool)
}

// OutcomePrimed is implemented by predictors that want the actual branch
// outcome before Predict — the execute-at-fetch core knows it, which is
// what makes a perfect upper bound implementable as a plain predictor.
type OutcomePrimed interface {
	PrimeOutcome(taken bool)
}

// ValueObserver is implemented by predictors that learn from the value a
// conditional branch tested. The core calls it at retirement (correct
// path only), just before Update, with the architectural value of the
// branch's source register and the branch's condition.
type ValueObserver interface {
	ObserveValue(pc uint64, cond Cond, value uint64)
}

// Cond classifies a conditional branch's test against zero. It mirrors
// the ISA's branch ops without importing the isa package (the CPU maps
// opcodes to Cond), so value predictors can evaluate a predicted source
// value into a predicted direction.
type Cond uint8

const (
	CondNone Cond = iota
	CondEQ        // taken iff value == 0
	CondNE        // taken iff value != 0
	CondLT        // taken iff value < 0 (signed)
	CondLE        // taken iff value <= 0 (signed)
	CondGT        // taken iff value > 0 (signed)
	CondGE        // taken iff value >= 0 (signed)
)

// Eval applies the condition to a register value.
func (c Cond) Eval(v uint64) bool {
	s := int64(v)
	switch c {
	case CondEQ:
		return v == 0
	case CondNE:
		return v != 0
	case CondLT:
		return s < 0
	case CondLE:
		return s <= 0
	case CondGT:
		return s > 0
	case CondGE:
		return s >= 0
	}
	return false
}

// ctr is a 2-bit saturating counter.
type ctr uint8

func (c ctr) taken() bool { return c >= 2 }

func (c ctr) inc() ctr {
	if c < 3 {
		return c + 1
	}
	return c
}

func (c ctr) dec() ctr {
	if c > 0 {
		return c - 1
	}
	return c
}

func train(c ctr, taken bool) ctr {
	if taken {
		return c.inc()
	}
	return c.dec()
}
