package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/slicehw"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// This file implements the parallel, memoized experiment engine. Every
// driver (Table 2, Figure 1, Figure 11, Table 4) describes the simulations
// it needs as RunSpecs; the engine executes each unique spec exactly once —
// across drivers, not just within one — and fans independent runs out over
// a bounded worker pool. Results are deterministic and input-ordered: a
// simulation is a pure function of its spec (fresh core, fresh memory,
// shared read-only image and slice table), so scheduling order cannot
// change any result, only wall time.

// RunSpec identifies one simulation: which workload, under which machine
// configuration, with or without its slices, over which region. Two specs
// with equal keys produce identical runs.
type RunSpec struct {
	Workload   string
	Cfg        cpu.Config
	WithSlices bool
	Warm, Run  uint64
	// Set, when non-nil, is a slice set to measure with instead of the
	// workload's hand-built slices (WithSlices must be false): the run
	// restores the baseline warm prefix into a core using the set's image
	// and table. The key holds only the set's name, so names must be
	// content-derived for equal keys to mean identical runs.
	Set *SliceSet
}

// Key returns the memoization key. The config contributes its stable
// fingerprint (perfect-PC sets sorted), so map iteration order cannot
// split or alias cache entries.
func (s RunSpec) Key() string {
	set := ""
	if s.Set != nil {
		set = "|set=" + s.Set.Name
	}
	return fmt.Sprintf("%s|slices=%t|warm=%d|run=%d%s|%s",
		s.Workload, s.WithSlices, s.Warm, s.Run, set, s.Cfg.Fingerprint())
}

// SliceSet is an alternative slice configuration for one workload —
// typically automatically constructed candidates (internal/autoslice). The
// image must hold the workload's main program first, plus the slice code;
// the table must index the same slice metadata. A set is immutable once a
// RunSpec carries it.
type SliceSet struct {
	Name     string
	Workload string
	Image    *asm.Image
	Table    *slicehw.Table
}

// RunResult is everything a driver may need from one simulation: the
// run's full counter snapshot. It is shared by every consumer of the memo
// entry and must be treated as read-only.
type RunResult struct {
	Snap stats.Snapshot
	// Wall is how long the simulation itself took (memo hits share the
	// creating run's result, wall time included).
	Wall time.Duration
}

// Stats returns the whole-run counters (the Snapshot's Sim component).
func (r *RunResult) Stats() *stats.Sim { return &r.Snap.Sim }

// Event describes one engine-level occurrence, delivered to the Progress
// callback: a simulation that ran (Memoized=false) or a request served
// from the memo cache (Memoized=true).
type Event struct {
	Spec     RunSpec
	Memoized bool
	Wall     time.Duration
	// Insts is instructions simulated (zero for memo hits): the measured
	// region, plus the warm region when this run simulated it (Warm ==
	// WarmFromSim).
	Insts uint64
	// Warm says where the run's warm checkpoint came from (empty for memo
	// hits, which simulate nothing at all).
	Warm WarmSource
}

// EngineStats aggregates run-level observability counters.
type EngineStats struct {
	// Hits counts requests served from the memo cache; Misses counts
	// simulations actually executed. Hits+Misses = requests.
	Hits, Misses uint64
	// SimInsts is total instructions simulated (measurement regions, plus
	// warm regions that were not served from the checkpoint cache).
	SimInsts uint64
	// SimWall is cumulative simulation time across misses — CPU-seconds
	// of simulation, which exceeds elapsed wall time when Jobs > 1.
	SimWall time.Duration
	// Checkpoints is the warm-checkpoint cache's view of the same runs:
	// shared warm prefixes, restores, and on-disk store traffic.
	Checkpoints CheckpointStats
}

// Engine runs experiment simulations with memoization and a bounded
// worker pool. The zero value is not usable; call NewEngine.
type Engine struct {
	// Params selects region lengths (shared by every driver).
	Params Params
	// Jobs bounds concurrent simulations; 0 means GOMAXPROCS.
	Jobs int
	// Progress, when non-nil, receives one Event per request. Calls are
	// serialized by the engine, in completion order.
	Progress func(Event)
	// Ckpt supplies warm checkpoints. NewEngine installs a private
	// in-memory checkpointer; callers may replace it (before the first
	// Run) with a shared or disk-backed one so warm prefixes survive
	// across engines or process invocations.
	Ckpt *Checkpointer
	// Oracle attaches the differential oracle to every measured run;
	// a divergence fails the run (set before the first Run). Slice-set
	// specs run under the oracle regardless.
	Oracle OracleOptions

	memo     flight[*RunResult]     // RunSpec key → simulation
	profiles flight[profile.Result] // baseline RunSpec key → classification

	mu sync.Mutex // guards st
	st EngineStats

	progressMu sync.Mutex
}

// NewEngine builds an engine. jobs ≤ 0 selects GOMAXPROCS workers.
func NewEngine(p Params, jobs int) *Engine {
	return &Engine{
		Params: p,
		Jobs:   jobs,
		Ckpt:   NewCheckpointer("", WarmDetailed),
	}
}

func (e *Engine) jobs() int {
	if e.Jobs > 0 {
		return e.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Stats returns a snapshot of the observability counters.
func (e *Engine) Stats() EngineStats {
	ck := e.Ckpt.Stats()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.st
	st.Checkpoints = ck
	return st
}

func (e *Engine) emit(ev Event) {
	if e.Progress == nil {
		return
	}
	e.progressMu.Lock()
	e.Progress(ev)
	e.progressMu.Unlock()
}

// Run executes (or recalls) one simulation. Safe for concurrent use. Each
// distinct spec key simulates once, and every other request for it shares
// that run's result or error. A spec carrying a slice set always runs
// under the oracle, whatever e.Oracle says, so an automatically built
// slice is only ever measured on a divergence-free run; the set's name is
// in the key, so a memo hit on a set spec is a validated run too. A
// malformed spec is refused before the memo sees it: a refused spec can
// share its key with a valid one (the key names only the set's name), so
// its error must never be cached under that key.
func (e *Engine) Run(spec RunSpec) (*RunResult, error) {
	key := spec.Key()
	w, err := spec.check(key)
	if err != nil {
		return nil, err
	}
	o := e.Oracle
	if spec.Set != nil {
		o.Enabled = true
	}
	res, hit, err := e.memo.do(key, func() (*RunResult, error) { return e.simulate(spec, w, o) })
	e.mu.Lock()
	if hit {
		e.st.Hits++
	} else {
		e.st.Misses++
	}
	e.mu.Unlock()
	if hit {
		e.emit(Event{Spec: spec, Memoized: true})
	}
	return res, err
}

// check validates a spec and resolves its workload.
func (spec RunSpec) check(key string) (*workloads.Workload, error) {
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	if set := spec.Set; set != nil {
		if spec.WithSlices {
			return nil, fmt.Errorf("harness: spec %s: WithSlices and a slice set are mutually exclusive", key)
		}
		if set.Name == "" || set.Workload == "" || set.Image == nil || set.Table == nil {
			return nil, fmt.Errorf("harness: spec %s: slice set needs a name, workload, image, and table", key)
		}
		if set.Workload != spec.Workload {
			return nil, fmt.Errorf("harness: slice set %q belongs to %s, not %s", set.Name, set.Workload, spec.Workload)
		}
	}
	return w, nil
}

// simulate measures one checked spec; Run calls it once per key.
func (e *Engine) simulate(spec RunSpec, w *workloads.Workload, o OracleOptions) (*RunResult, error) {
	start := time.Now()
	core, warmSrc, err := RunOnce(e.Ckpt, w, spec.Cfg, spec.WithSlices, spec.Warm, spec.Run, o, spec.Set, nil)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Snap: core.Snapshot(), Wall: time.Since(start)}

	insts := spec.Run
	if warmSrc == WarmFromSim {
		insts += spec.Warm
	}
	e.mu.Lock()
	e.st.SimInsts += insts
	e.st.SimWall += res.Wall
	e.mu.Unlock()
	e.emit(Event{Spec: spec, Wall: res.Wall, Insts: insts, Warm: warmSrc})
	return res, nil
}

// fanOut calls f(0), …, f(n-1) over the engine's worker pool and waits for
// all of them. Each worker takes its pool slot before calling f, the
// discipline flight relies on.
func (e *Engine) fanOut(n int, f func(i int)) {
	sem := make(chan struct{}, e.jobs())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f(i)
		}(i)
	}
	wg.Wait()
}

// RunAll executes the specs over the worker pool and returns results in
// input order, or the first spec's error in input order. Duplicate specs
// within the batch (and against earlier batches) are simulated once.
func (e *Engine) RunAll(specs []RunSpec) ([]*RunResult, error) {
	results, errs := e.runAllEach(specs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runAllEach executes the specs over the worker pool like RunAll, but
// reports each spec's outcome individually instead of failing the batch on
// the first error: results[i] is nil exactly when errs[i] is non-nil, so
// a divergence rejects one slice-set candidate rather than aborting the
// experiment.
func (e *Engine) runAllEach(specs []RunSpec) ([]*RunResult, []error) {
	results := make([]*RunResult, len(specs))
	errs := make([]error, len(specs))
	e.fanOut(len(specs), func(i int) {
		results[i], errs[i] = e.Run(specs[i])
	})
	return results, errs
}

// mustRunAll is RunAll for driver-internal specs, whose workload names
// come from *workloads.Workload values and cannot be unknown.
func (e *Engine) mustRunAll(specs []RunSpec) []*RunResult {
	res, err := e.RunAll(specs)
	if err != nil {
		panic(err)
	}
	return res
}

// specFor builds the canonical RunSpec for one (workload, config, slices)
// leg under p: the drivers' region lengths and predictor defaults, hence
// the drivers' exact memo key.
func specFor(p Params, w *workloads.Workload, cfg cpu.Config, withSlices bool) RunSpec {
	warm, run := p.regions(w)
	if cfg.BPred == "" {
		cfg.BPred = p.BPred
	}
	return RunSpec{Workload: w.Name, Cfg: cfg, WithSlices: withSlices, Warm: warm, Run: run}
}

// baseSpec is the plain baseline run of w under cfg — no slices, no
// perfect modes beyond what cfg already carries.
func (e *Engine) baseSpec(w *workloads.Workload, cfg cpu.Config) RunSpec {
	return specFor(e.Params, w, cfg, false)
}

func (e *Engine) sliceSpec(w *workloads.Workload, cfg cpu.Config) RunSpec {
	return specFor(e.Params, w, cfg, true)
}

// profileFor classifies the problem instructions of w under cfg. The
// underlying baseline simulation goes through the memo cache — it is the
// same spec as the driver's base bars, so Figure 1 no longer re-runs the
// profiling baseline once per width — and the derived classification is
// itself computed once per baseline key.
func (e *Engine) profileFor(w *workloads.Workload, cfg cpu.Config) (profile.Result, error) {
	spec := e.baseSpec(w, cfg)
	r, _, err := e.profiles.do(spec.Key(), func() (profile.Result, error) {
		res, err := e.Run(spec)
		if err != nil {
			return profile.Result{}, err
		}
		return profile.Characterize(res.Stats(), spec.Run), nil
	})
	return r, err
}
