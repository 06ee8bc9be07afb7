// Package harness drives the paper's experiments end to end: it runs the
// workloads under the right machine configurations and produces the rows
// of Table 2 (problem-instruction coverage), Figure 1 (perfect-mode IPCs),
// Table 3 (slice characterization), Figure 11 (slice vs limit speedups),
// and Table 4 (detailed slice-execution statistics).
package harness

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/oracle"
	"repro/internal/slicehw"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Params selects region lengths and machine width.
type Params struct {
	// Scale multiplies each workload's suggested warm-up and measurement
	// regions (1.0 = the defaults; benchmarks use smaller values).
	Scale float64

	// BPred, when non-empty, selects the direction predictor (by
	// registry spec, e.g. "gshare:4096,10") for every driver-built
	// configuration that does not pin one itself. Drivers that compare
	// predictors (FigurePred) pin their non-baseline legs explicitly, so
	// the override only moves the baseline.
	BPred string
}

// Region floors: below these lengths the caches and predictors never leave
// their cold transient, so every derived table row would be noise.
const (
	minWarmRegion = 10_000
	minRunRegion  = 20_000
)

// regionClampWarned dedups the clamp warning (one per process, like the
// MaxCycles truncation warning); regionClampWarnf is swappable for tests.
var (
	regionClampWarned atomic.Bool
	regionClampWarnf  = warnf
)

func (p Params) regions(w *workloads.Workload) (warm, run uint64) {
	s := p.Scale
	if s <= 0 {
		s = 1
	}
	warm = uint64(float64(w.SuggestedWarmup) * s)
	run = uint64(float64(w.SuggestedRun) * s)
	if warm < minWarmRegion || run < minRunRegion {
		// A silently enforced floor would make results look like they came
		// from the requested scale when they did not; say so once.
		if regionClampWarned.CompareAndSwap(false, true) {
			regionClampWarnf(
				"scale %g shrinks %s regions below the %d/%d floors — floors apply, results cover larger regions than requested",
				s, w.Name, minWarmRegion, minRunRegion)
		}
	}
	if warm < minWarmRegion {
		warm = minWarmRegion
	}
	if run < minRunRegion {
		run = minRunRegion
	}
	return
}

// RunOnce produces one measured simulation, the sequence behind every
// engine run and every slicesim run: the warm prefix comes from the
// checkpointer (simulated at most once per shareable prefix), the
// measurement region runs on a core restored from it. Restoring a
// detailed-warm checkpoint is behavior-identical to warming straight
// through at a quiesced boundary, so cache hits and misses yield equal
// snapshots. Each call restores a private core over copy-on-write memory,
// so concurrent calls are independent; the engine relies on this to
// parallelize.
// When tr is non-nil it is attached to the restored core, so it observes
// the measured region only; tracing never changes the run's counters.
// When o.Enabled is set, the differential oracle is seeded from the same
// warm checkpoint the core restores from and checks the measured region
// (see measure).
// When set is non-nil the measurement runs with that slice set's image and
// table instead of the workload's hand-built slices: the warm prefix is
// the plain baseline one (the warm region never executes slice code, and
// the candidate hardware starting cold at the measurement boundary is the
// conservative choice when deciding whether to accept an auto slice). The
// baseline checkpoint's PC and memory lie entirely inside the main
// program, so any image that embeds the main program accepts the restore.
func RunOnce(cp *Checkpointer, w *workloads.Workload, cfg cpu.Config, withSlices bool, warm, run uint64, o OracleOptions, set *SliceSet, tr stats.Tracer) (*cpu.Core, WarmSource, error) {
	image := w.Image
	var table *slicehw.Table
	switch {
	case set != nil:
		image, table = set.Image, set.Table
	case withSlices:
		table = w.SliceTable()
	}
	ck, src, err := cp.Warm(w, cfg, withSlices, warm)
	if err != nil {
		return nil, src, err
	}
	core, err := cpu.Restore(cfg, image, ck, table)
	if err != nil {
		return nil, src, err
	}
	cp.mu.Lock()
	cp.st.Restores++
	cp.mu.Unlock()
	if tr != nil {
		core.SetTracer(tr)
	}
	var orc *oracle.Oracle
	if o.Enabled {
		orc = oracle.FromCheckpoint(image, ck, oracle.Options{
			Workload: w.Name,
			WarmKey:  WarmKeyFor(w.Name, withSlices, warm, cp.Mode, cfg),
			Every:    o.every,
		})
		orc.Attach(core)
	}
	if err := measure(core, run, orc, fmt.Sprintf("%s (%s, slices=%t)", w.Name, cfg.Name, withSlices)); err != nil {
		return nil, src, err
	}
	return core, src, nil
}

// measure runs core's measured region of run instructions per program,
// the step RunOnce and RunMP end with. A region truncated by the
// MaxCycles guard is warned about, naming the run by label: it would
// silently skew every number derived from it. When orc, attached to core,
// is non-nil, one final structural sweep at the region boundary (so short
// runs that never crossed a sweep period are still checked) and any
// divergence the oracle recorded fail the run with an error wrapping
// *oracle.DivergenceError.
func measure(core *cpu.Core, run uint64, orc *oracle.Oracle, label string) error {
	s := core.Run(run)
	if s.CycleGuardHits > 0 {
		warnf("%s hit the MaxCycles guard after %d cycles — results cover a truncated region", label, s.Cycles)
	}
	if orc == nil {
		return nil
	}
	if err := core.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: oracle: %w", label, err)
	}
	if err := orc.Err(); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	return nil
}

// OracleOptions configures the per-run differential oracle (see
// internal/oracle), which sweeps the invariants every
// oracle.DefaultEvery cycles.
type OracleOptions struct {
	// Enabled attaches the oracle to every measured run.
	Enabled bool
	// every overrides the sweep period (0 = oracle.DefaultEvery); only
	// this package's tests set it, to sweep short runs more often.
	every int64
}

// --- Table 2 ---

// Table2Row is one workload's problem-instruction coverage.
type Table2Row struct {
	Program string
	MemSI   int
	MemPct  float64 // % of dynamic memory ops that are problem loads
	MisPct  float64 // % of load misses covered
	BrSI    int
	BrPct   float64 // % of dynamic branches that are problem branches
	BrMis   float64 // % of mispredictions covered
}

// Table2 reproduces the paper's Table 2 through the engine: the profiling
// baselines run in parallel, then the per-PC statistics are classified.
func (e *Engine) Table2(ws []*workloads.Workload) []Table2Row {
	specs := make([]RunSpec, len(ws))
	for i, w := range ws {
		specs[i] = e.baseSpec(w, cpu.Config4Wide())
	}
	e.mustRunAll(specs) // warm the memo in parallel

	rows := make([]Table2Row, 0, len(ws))
	for _, w := range ws {
		r, err := e.profileFor(w, cpu.Config4Wide())
		if err != nil {
			panic(err)
		}
		rows = append(rows, Table2Row{
			Program: w.Name,
			MemSI:   r.MemSI,
			MemPct:  r.MemFrac * 100,
			MisPct:  r.MissCoverage * 100,
			BrSI:    r.BrSI,
			BrPct:   r.BrFrac * 100,
			BrMis:   r.MispredCoverage * 100,
		})
	}
	return rows
}

// --- Figure 1 ---

// Figure1Row holds the three IPC bars for one workload and width.
type Figure1Row struct {
	Program                 string
	Base, ProbPerf, AllPerf [2]float64 // index 0: 4-wide, 1: 8-wide
}

// widthConfigs are Figure 1's two machines, index-aligned with the [2]
// arrays of Figure1Row.
var widthConfigs = []func() cpu.Config{cpu.Config4Wide, cpu.Config8Wide}

// Figure1 reproduces Figure 1 through the engine in two parallel phases:
// the per-(workload, width) baselines first — each doubles as both the
// profiling input and the "baseline" bar, so each width's profiling run
// is simulated exactly once — then the
// problem-perfect and all-perfect runs derived from those profiles.
func (e *Engine) Figure1(ws []*workloads.Workload) []Figure1Row {
	// Phase 1: baselines for both widths.
	baseSpecs := make([]RunSpec, 0, 2*len(ws))
	for _, w := range ws {
		for _, mk := range widthConfigs {
			baseSpecs = append(baseSpecs, e.baseSpec(w, mk()))
		}
	}
	baseRes := e.mustRunAll(baseSpecs)

	// Phase 2: perfect-mode runs, configured from the memoized profiles.
	perfSpecs := make([]RunSpec, 0, 4*len(ws))
	for _, w := range ws {
		for _, mk := range widthConfigs {
			prob, err := e.profileFor(w, mk())
			if err != nil {
				panic(err)
			}
			probCfg := mk()
			probCfg.Perfect = cpu.Perfect{LoadPCs: prob.LoadPCs, BranchPCs: prob.BranchPCs}
			perfCfg := mk()
			perfCfg.Perfect = cpu.Perfect{AllBranches: true, AllLoads: true}
			perfSpecs = append(perfSpecs, e.baseSpec(w, probCfg), e.baseSpec(w, perfCfg))
		}
	}
	perfRes := e.mustRunAll(perfSpecs)

	rows := make([]Figure1Row, 0, len(ws))
	for i, w := range ws {
		row := Figure1Row{Program: w.Name}
		for wi := range widthConfigs {
			row.Base[wi] = baseRes[2*i+wi].Stats().IPC()
			row.ProbPerf[wi] = perfRes[4*i+2*wi].Stats().IPC()
			row.AllPerf[wi] = perfRes[4*i+2*wi+1].Stats().IPC()
		}
		rows = append(rows, row)
	}
	return rows
}

// --- Table 3 ---

// Table3Row characterizes one constructed slice (static metadata).
type Table3Row struct {
	Program string
	Slice   string
	Static  int // static size (loop portion in parentheses in the paper)
	Loop    int
	LiveIns int
	Pref    int // problem loads prefetched
	Pred    int // problem branches predicted
	Kills   int
	MaxIter int
}

// Table3 reproduces the slice characterization table from the workloads'
// hand-constructed slices.
func Table3(ws []*workloads.Workload) []Table3Row {
	var rows []Table3Row
	for _, w := range ws {
		for _, sl := range w.Slices {
			rows = append(rows, Table3Row{
				Program: w.Name,
				Slice:   sl.Name,
				Static:  sl.StaticSize,
				Loop:    sl.LoopSize,
				LiveIns: len(sl.LiveIns),
				Pref:    len(sl.CoveredLoadPCs),
				Pred:    len(sl.CoveredBranchPCs()),
				Kills:   sl.KillCount(),
				MaxIter: sl.MaxLoops,
			})
		}
	}
	return rows
}

// --- Figure 11 ---

// Figure11Row holds the slice and constrained-limit speedups for one
// workload on the 4-wide machine.
type Figure11Row struct {
	Program      string
	BaseIPC      float64
	SliceIPC     float64
	LimitIPC     float64
	SliceSpeedup float64 // percent
	LimitSpeedup float64 // percent
}

// coveredPerfect builds the perfect-mode PC sets for the constrained limit
// study: exactly the problem instructions the workload's slices cover.
func coveredPerfect(w *workloads.Workload) cpu.Perfect {
	p := cpu.Perfect{LoadPCs: map[uint64]bool{}, BranchPCs: map[uint64]bool{}}
	for _, sl := range w.Slices {
		for _, pc := range sl.CoveredLoadPCs {
			p.LoadPCs[pc] = true
		}
		for _, pc := range sl.CoveredBranchPCs() {
			p.BranchPCs[pc] = true
		}
	}
	return p
}

// speedupPct is the percent cycle-count speedup of `with` over `base`,
// guarding the degenerate zero-cycle run (nothing retired) that would
// otherwise produce ±Inf/NaN.
func speedupPct(base, with uint64) float64 {
	if with == 0 || base == 0 {
		return 0
	}
	return (float64(base)/float64(with) - 1) * 100
}

// Figure11 reproduces Figure 11 through the engine: base, slice-assisted,
// and constrained-limit runs for every workload, all independent, all in
// one parallel batch.
func (e *Engine) Figure11(ws []*workloads.Workload) []Figure11Row {
	specs := make([]RunSpec, 0, 3*len(ws))
	for _, w := range ws {
		cfg := cpu.Config4Wide()
		limCfg := cpu.Config4Wide()
		limCfg.Perfect = coveredPerfect(w)
		specs = append(specs, e.baseSpec(w, cfg), e.sliceSpec(w, cfg), e.baseSpec(w, limCfg))
	}
	res := e.mustRunAll(specs)

	rows := make([]Figure11Row, 0, len(ws))
	for i, w := range ws {
		base, sl, lim := res[3*i].Stats(), res[3*i+1].Stats(), res[3*i+2].Stats()
		rows = append(rows, Figure11Row{
			Program:      w.Name,
			BaseIPC:      base.IPC(),
			SliceIPC:     sl.IPC(),
			LimitIPC:     lim.IPC(),
			SliceSpeedup: speedupPct(base.Cycles, sl.Cycles),
			LimitSpeedup: speedupPct(base.Cycles, lim.Cycles),
		})
	}
	return rows
}

// --- Table 4 ---

// Table4Col is the detailed characterization of one program with and
// without slices (one column of the paper's Table 4).
type Table4Col struct {
	Program string

	// Base run.
	BaseFetched     uint64
	BaseMispredicts uint64
	BaseLoadMisses  uint64
	BaseCycles      uint64

	// Base + slices run.
	SliceProgFetched  uint64
	SliceInstsFetched uint64
	SliceInstsRetired uint64
	Forks             uint64
	ForksSquashed     uint64
	ForksIgnored      uint64

	BranchesCovered  int    // static problem branches covered by slices
	PredsGenerated   uint64 // predictions the helpers actually filled
	PredsUsed        uint64 // predictions consumed by branch instances (incl. late)
	MispCovered      uint64 // base mispredictions at covered branch PCs
	MispRemoved      int64  // base mispredicts − slice mispredicts
	MispRemovedPct   float64
	IncorrectPreds   uint64
	LatePct          float64
	EarlyResolutions uint64

	LoadsCovered     int // static problem loads covered by slices
	Prefetches       uint64
	MissesCovered    uint64 // base misses at covered load PCs
	MissReduction    int64
	MissReductionPct float64

	SliceCycles uint64
	SpeedupPct  float64
	// FracFromLoads estimates the share of the speedup due to
	// prefetching, measured by re-running with PGI allocation disabled.
	FracFromLoads float64
}

// Table4 reproduces Table 4 through the engine: base, slice, and
// predictions-off (prefetch-only) runs per workload, one parallel batch.
// The base and slice runs are the same specs Figure 11 uses, so running
// both drivers on one engine simulates them once.
func (e *Engine) Table4(ws []*workloads.Workload) []Table4Col {
	specs := make([]RunSpec, 0, 3*len(ws))
	for _, w := range ws {
		cfg := cpu.Config4Wide()
		prefCfg := cpu.Config4Wide()
		prefCfg.SlicePredictionsOff = true
		specs = append(specs, e.baseSpec(w, cfg), e.sliceSpec(w, cfg), e.sliceSpec(w, prefCfg))
	}
	res := e.mustRunAll(specs)

	cols := make([]Table4Col, 0, len(ws))
	for i, w := range ws {
		base, sl, pref := res[3*i].Stats(), res[3*i+1].Stats(), res[3*i+2].Stats()

		cov := coveredPerfect(w)
		var mispCov, missCov uint64
		for pc := range cov.BranchPCs {
			if st, ok := base.Static[pc]; ok {
				mispCov += st.Mispredicts
			}
		}
		for pc := range cov.LoadPCs {
			if st, ok := base.Static[pc]; ok {
				missCov += st.Misses
			}
		}

		col := Table4Col{
			Program:           w.Name,
			BaseFetched:       base.MainFetched,
			BaseMispredicts:   base.Mispredicts,
			BaseLoadMisses:    base.LoadMisses,
			BaseCycles:        base.Cycles,
			SliceProgFetched:  sl.MainFetched,
			SliceInstsFetched: sl.HelperFetched,
			SliceInstsRetired: sl.HelperRetired,
			Forks:             sl.Forks,
			ForksSquashed:     sl.ForksSquashed,
			ForksIgnored:      sl.ForksIgnored,
			BranchesCovered:   len(cov.BranchPCs),
			PredsGenerated:    sl.PredsGenerated,
			PredsUsed:         sl.PredsConsumed(),
			MispCovered:       mispCov,
			MispRemoved:       int64(base.Mispredicts) - int64(sl.Mispredicts),
			IncorrectPreds:    sl.PredsIncorrect,
			EarlyResolutions:  sl.EarlyResolutions,
			LoadsCovered:      len(cov.LoadPCs),
			Prefetches:        sl.SlicePrefetches,
			MissesCovered:     missCov,
			MissReduction:     int64(base.LoadMisses) - int64(sl.LoadMisses),
			SliceCycles:       sl.Cycles,
		}
		if base.Mispredicts > 0 {
			col.MispRemovedPct = float64(col.MispRemoved) / float64(base.Mispredicts) * 100
		}
		if used := sl.PredsConsumed(); used > 0 {
			col.LatePct = float64(sl.PredsLateUsed) / float64(used) * 100
		}
		if base.LoadMisses > 0 {
			col.MissReductionPct = float64(col.MissReduction) / float64(base.LoadMisses) * 100
		}
		col.SpeedupPct = speedupPct(base.Cycles, sl.Cycles)
		total := float64(base.Cycles) - float64(sl.Cycles)
		fromLoads := float64(base.Cycles) - float64(pref.Cycles)
		if total > 0 {
			frac := fromLoads / total
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			col.FracFromLoads = frac
		}
		cols = append(cols, col)
	}
	return cols
}
