// Package cpu implements the simulated machine of Table 1: an aggressive,
// heavily pipelined out-of-order SMT processor with an execute-at-fetch
// functional model. Wrong paths execute real instructions; squashes roll
// state back through per-instruction undo logs; helper threads run
// speculative slices that prefetch into the shared L1 and feed branch
// predictions to the prediction correlator.
package cpu

import (
	"repro/internal/cache"
)

// Perfect configures the limit-study modes of §2.3 and §6: oracle branch
// prediction and L1-hit loads, globally or for a selected set of static
// PCs (the "problem instructions").
type Perfect struct {
	AllBranches bool
	AllLoads    bool
	BranchPCs   map[uint64]bool
	LoadPCs     map[uint64]bool
}

// Parameters both of the paper's machines share (Table 1) and no
// experiment varies. Config.Fingerprint does not cover them, so changing
// one requires bumping ckptSchemaVersion in internal/harness/checkpoint.go;
// otherwise a -checkpoint-dir store warmed under the old value is restored.
const (
	// complexUnits is the number of multiply/divide units.
	complexUnits = 1
	// frontLatency is the fetch→dispatch depth; with one cycle each for
	// issue and execute it sets the 14-cycle minimum branch misprediction
	// penalty.
	frontLatency = 12
	mulLatency   = 7
	divLatency   = 20
	// mainFetchWeight biases the ICOUNT fetch policy toward the main
	// thread (a weight of 2 lets the main thread hold twice a helper's
	// share of in-flight instructions before losing priority).
	mainFetchWeight = 2.0
	// helperFetchQCap bounds each helper's fetch queue (the main thread
	// uses Config.FetchQueueCap).
	helperFetchQCap = 8
	// confidenceThreshold is the resetting-counter value at or above
	// which a covered instruction counts as confident (well-behaved).
	confidenceThreshold = 12
)

// Config holds every machine parameter the two machines or the
// experiments vary. Config4Wide and Config8Wide are the paper's two
// machines.
type Config struct {
	Name string

	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	WindowSize  int
	LdStPorts   int

	FetchQueueCap int

	ThreadContexts int

	Mem cache.Params

	// HelperWindowCap bounds how many window entries all helper threads
	// may hold together, so slices whose loads sit waiting on memory
	// cannot starve the main thread of window space.
	HelperWindowCap int

	// PredQueueDepth is the correlator's per-branch prediction capacity.
	// Figure 10 shows 8; we double it so a slice hoisted one outer
	// iteration ahead can hold a full iteration's predictions while the
	// previous instance's entries await their kills (the paper notes more
	// efficient implementations are possible, §5.4).
	PredQueueDepth int

	// SlicePredictionsOff suppresses PGI allocation so slices only
	// prefetch — used to decompose speedup into load and branch parts
	// (Table 4's final row).
	SlicePredictionsOff bool

	// ConfidenceGatedForks implements §6.3's "obvious future work":
	// gate each fork with a JRS-style confidence estimator so slices run
	// only when their covered problem instructions are actually likely to
	// miss or mispredict, cutting the opportunity cost of slice execution.
	ConfidenceGatedForks bool

	// BPred selects the direction predictor by registry spec —
	// "name" or "name:params", e.g. "yags", "value", "gshare:4096,10"
	// (see internal/bpred; "" means the default YAGS). The choice is part
	// of the config fingerprint and of warm-up state, so runs under
	// different predictors never share engine memo entries or warm
	// checkpoints.
	BPred string
	// IndirectPred selects the indirect target predictor the same way
	// ("" means the default cascaded predictor).
	IndirectPred string

	Perfect Perfect

	// MaxCycles is a runaway guard for Run.
	MaxCycles uint64
}

// Config4Wide returns the paper's 4-wide machine (Table 1).
func Config4Wide() Config {
	return Config{
		Name:            "4-wide",
		FetchWidth:      4,
		IssueWidth:      4,
		CommitWidth:     4,
		WindowSize:      128,
		LdStPorts:       2,
		FetchQueueCap:   32,
		ThreadContexts:  4,
		Mem:             cache.DefaultParams(),
		HelperWindowCap: 32,
		PredQueueDepth:  16,
		MaxCycles:       1 << 62,
	}
}

// Config8Wide returns the paper's 8-wide machine: a 256-entry window and 4
// load/store ports (Table 1).
func Config8Wide() Config {
	c := Config4Wide()
	c.Name = "8-wide"
	c.FetchWidth = 8
	c.IssueWidth = 8
	c.CommitWidth = 8
	c.WindowSize = 256
	c.LdStPorts = 4
	c.FetchQueueCap = 64
	c.HelperWindowCap = 64
	return c
}
