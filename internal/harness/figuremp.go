package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Figure MP: multi-programmed SMT contention. The paper evaluates slices
// with the main program alone on the machine, helpers running in
// otherwise-idle contexts. This experiment co-schedules two or four of
// the workloads on one core — each main thread with its own image, memory
// view, and slice hardware, all contending for fetch slots, window space,
// helper contexts, and the shared cache hierarchy — and asks whether
// slice prediction still pays off when the "idle" resources it borrows
// are not idle.
//
// Multi-programmed cores refuse checkpointing (no two co-schedules share
// a warm prefix, and cross-program interference during warm-up is part of
// the scenario), so each leg warms inline: run the warm region, reset the
// counters, then measure. When the oracle is enabled it is seeded at each
// program's entry and observes the warm region too.

// mpHelperContexts is how many helper contexts a co-schedule adds on top
// of its main threads — the single-program machine's helper count, now
// shared by every program's slices, so forks from different programs
// contend for them.
const mpHelperContexts = 3

// FigureMPProg is one program's view of one co-schedule.
type FigureMPProg struct {
	Program string `json:"program"`

	// SoloIPC is the workload's single-program baseline IPC (the same
	// 4-wide baseline run the other figures use); BaseIPC and SliceIPC are
	// its IPC co-scheduled without and with slices.
	SoloIPC  float64 `json:"soloIPC"`
	BaseIPC  float64 `json:"baseIPC"`
	SliceIPC float64 `json:"sliceIPC"`
	// SliceSpeedupPct compares this program's retirement rate with slices
	// against without, both under contention (per-program cycles are wall
	// cycles, so the per-program IPC ratio is the speedup).
	SliceSpeedupPct float64 `json:"sliceSpeedupPct"`

	// Cache interference: this program's L1D load miss rate alone, and
	// co-scheduled without slices. MissRateDeltaPct is the
	// contention-induced increase (percentage points).
	SoloMissPct      float64 `json:"soloMissPct"`
	BaseMissPct      float64 `json:"baseMissPct"`
	SliceMissPct     float64 `json:"sliceMissPct"`
	MissRateDeltaPct float64 `json:"missRateDeltaPct"`

	// Slice behaviour under contention.
	Forks           uint64  `json:"forks"`
	PredsUsed       uint64  `json:"predsUsed"` // incl. late
	PredAccuracyPct float64 `json:"predAccuracyPct"`
	Prefetches      uint64  `json:"prefetches"`
	MispredRemoved  int64   `json:"mispredRemoved"` // base − slice, co-scheduled
}

// FigureMPRow is one co-schedule: per-program rows plus the aggregate
// throughput view.
type FigureMPRow struct {
	// Schedule names the co-schedule, e.g. "vpr+mcf" or "bzip2+crafty+eon+gap".
	Schedule string         `json:"schedule"`
	Programs []FigureMPProg `json:"programs"`
	// Throughput is the sum of per-program IPCs (aggregate retirement per
	// cycle) without and with slices, and the gain from turning slices on.
	BaseThroughput    float64 `json:"baseThroughput"`
	SliceThroughput   float64 `json:"sliceThroughput"`
	ThroughputGainPct float64 `json:"throughputGainPct"`
}

// CoSchedules forms the experiment's deterministic groupings from a
// workload list: adjacent pairs (wrapping, so a single workload co-runs
// against itself), then adjacent quads where the list is long enough.
func CoSchedules(ws []*workloads.Workload) [][]*workloads.Workload {
	if len(ws) == 0 {
		return nil
	}
	var groups [][]*workloads.Workload
	for i := 0; i < len(ws); i += 2 {
		groups = append(groups, []*workloads.Workload{ws[i], ws[(i+1)%len(ws)]})
	}
	for i := 0; i+4 <= len(ws); i += 4 {
		groups = append(groups, ws[i:i+4])
	}
	return groups
}

func scheduleName(group []*workloads.Workload) string {
	names := make([]string, len(group))
	for i, w := range group {
		names[i] = w.Name
	}
	return strings.Join(names, "+")
}

// mpConfig is the co-schedule machine: the 4-wide core with one main
// context per program plus the single-program machine's helper contexts,
// now shared across programs.
func mpConfig(p Params, n int) cpu.Config {
	cfg := cpu.Config4Wide()
	cfg.Name = fmt.Sprintf("mp%d-4wide", n)
	cfg.ThreadContexts = n + mpHelperContexts
	if cfg.BPred == "" {
		cfg.BPred = p.BPred
	}
	return cfg
}

// RunMP simulates one co-schedule leg end to end — inline warm, reset,
// measure — and returns the final snapshot (Progs holds the per-program
// counters). warm and run override the region lengths; zero derives each
// from p.regions as the maximum across the group, so every program gets
// at least its own suggested region. Exported for cmd/slicesim's
// -multiprog mode and the smoke tests; drivers go through
// Engine.FigureMP.
func RunMP(group []*workloads.Workload, p Params, withSlices bool, warm, run uint64, o OracleOptions) (stats.Snapshot, error) {
	if len(group) < 2 || len(group) > cpu.MaxPrograms {
		return stats.Snapshot{}, fmt.Errorf("harness: co-schedule needs 2..%d programs, got %d", cpu.MaxPrograms, len(group))
	}
	cfg := mpConfig(p, len(group))
	specs := make([]cpu.ProgSpec, len(group))
	var seeds []oracle.ProgSeed
	warmMax, runMax := warm, run
	if warm == 0 || run == 0 {
		gw, gr := mpRegions(p, group)
		if warm == 0 {
			warmMax = gw
		}
		if run == 0 {
			runMax = gr
		}
	}
	for i, w := range group {
		specs[i] = cpu.ProgSpec{Image: w.Image, Mem: w.NewMemory(), Entry: w.Entry}
		if withSlices {
			specs[i].SliceTable = w.SliceTable()
		}
		if o.Enabled {
			// The oracle's models need their own memory copies: each model
			// mutates its image with every store.
			seeds = append(seeds, oracle.ProgSeed{Image: w.Image, Mem: w.NewMemory(), Entry: w.Entry, Name: w.Name})
		}
	}
	core, err := cpu.NewMulti(cfg, specs)
	if err != nil {
		return stats.Snapshot{}, err
	}
	var orc *oracle.Oracle
	if o.Enabled {
		orc = oracle.NewMulti(seeds, oracle.Options{Every: o.every})
		orc.Attach(core)
	}
	// Inline warm: every program retires at least the group's largest warm
	// region (each keeps contending until the slowest reaches it), then
	// counters reset and the measured region runs.
	core.Run(warmMax)
	core.ResetStats()
	if err := measure(core, runMax, orc, fmt.Sprintf("%s (slices=%t)", scheduleName(group), withSlices)); err != nil {
		return stats.Snapshot{}, err
	}
	return core.Snapshot(), nil
}

// mpRegions derives a co-schedule's inline warm and measured region
// lengths under p: the maximum of each program's scaled region, so every
// program retires at least its own suggested region (the slower ones keep
// the faster ones contending past theirs). RunMP applies this when its
// warm/run overrides are zero.
func mpRegions(p Params, group []*workloads.Workload) (warm, run uint64) {
	for _, w := range group {
		pw, pr := p.regions(w)
		if pw > warm {
			warm = pw
		}
		if pr > run {
			run = pr
		}
	}
	return warm, run
}

// FigureMP runs the multi-programmed contention experiment for the
// engine's deterministic co-schedules of ws. Solo baselines come from the
// memoized single-program runs the other figures share; the co-scheduled
// legs fan out over the engine's worker pool. Co-schedules are never
// memoized — no two share a warm prefix, and each leg is one whole
// simulation — but they count in the engine stats like any other miss.
func (e *Engine) FigureMP(ws []*workloads.Workload) []FigureMPRow {
	groups := CoSchedules(ws)
	if len(groups) == 0 {
		return nil
	}

	// Solo baselines through the memo (shared with Figure 1/11 et al.).
	soloSpecs := make([]RunSpec, len(ws))
	for i, w := range ws {
		soloSpecs[i] = e.baseSpec(w, cpu.Config4Wide())
	}
	soloRes := e.mustRunAll(soloSpecs)
	solo := make(map[string]*stats.Sim, len(ws))
	for i, w := range ws {
		solo[w.Name] = soloRes[i].Stats()
	}

	// Co-scheduled legs: 2 per group (without, with slices), each its own
	// whole simulation — no memo, no checkpoints — bounded by the pool.
	legs := make([]stats.Snapshot, 2*len(groups))
	errs := make([]error, len(legs))
	e.fanOut(len(legs), func(li int) {
		g := groups[li/2]
		start := time.Now()
		legs[li], errs[li] = RunMP(g, e.Params, li%2 == 1, 0, 0, e.Oracle)
		if errs[li] == nil {
			e.noteMPRun(g, time.Since(start))
		}
	})
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}

	rows := make([]FigureMPRow, 0, len(groups))
	for gi, g := range groups {
		base, sl := &legs[2*gi], &legs[2*gi+1]
		row := FigureMPRow{Schedule: scheduleName(g)}
		for i, w := range g {
			bs, ss := &base.Progs[i], &sl.Progs[i]
			pr := FigureMPProg{
				Program:        w.Name,
				SoloIPC:        solo[w.Name].IPC(),
				BaseIPC:        bs.IPC(),
				SliceIPC:       ss.IPC(),
				SoloMissPct:    solo[w.Name].LoadMissRate() * 100,
				BaseMissPct:    bs.LoadMissRate() * 100,
				SliceMissPct:   ss.LoadMissRate() * 100,
				Forks:          ss.Forks,
				PredsUsed:      ss.PredsConsumed(),
				Prefetches:     ss.SlicePrefetches,
				MispredRemoved: int64(bs.Mispredicts) - int64(ss.Mispredicts),
			}
			// Per-program cycles are wall cycles (every program's Cycles
			// counter ticks every cycle), so the IPC ratio is the honest
			// per-program speedup even though retired counts differ.
			if pr.BaseIPC > 0 {
				pr.SliceSpeedupPct = (pr.SliceIPC/pr.BaseIPC - 1) * 100
			}
			pr.MissRateDeltaPct = pr.BaseMissPct - pr.SoloMissPct
			pr.PredAccuracyPct = ss.OverrideAccuracyPct()
			row.BaseThroughput += pr.BaseIPC
			row.SliceThroughput += pr.SliceIPC
			row.Programs = append(row.Programs, pr)
		}
		if row.BaseThroughput > 0 {
			row.ThroughputGainPct = (row.SliceThroughput/row.BaseThroughput - 1) * 100
		}
		rows = append(rows, row)
	}
	return rows
}

// noteMPRun folds one co-scheduled simulation into the engine counters:
// it is a real simulation (never memoized), covering the mpRegions-derived
// warm+run per program.
func (e *Engine) noteMPRun(g []*workloads.Workload, wall time.Duration) {
	warm, run := mpRegions(e.Params, g)
	insts := uint64(len(g)) * (warm + run)
	e.mu.Lock()
	e.st.Misses++
	e.st.SimInsts += insts
	e.st.SimWall += wall
	e.mu.Unlock()
	e.emit(Event{Spec: RunSpec{Workload: scheduleName(g)}, Wall: wall, Insts: insts, Warm: WarmFromSim})
}
