package harness

import (
	"repro/internal/bpred"
	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// This file implements the predictor-stack comparison figure: for each
// workload it pits speculative slices against the history-free baselines
// the prediction seam makes selectable — a value predictor, a sparse
// correlation-mining predictor, and a perfect-on-problem-branches upper
// bound — all measured on the problem-branch subset the profiler
// identifies. Every leg is an ordinary RunSpec through the memoized
// engine; adding a predictor to the comparison means adding one spec
// here, with zero changes to the core loop.

// FigurePredLeg is one predictor configuration's measurement: whole-run
// IPC plus the misprediction count on the problem-branch subset.
type FigurePredLeg struct {
	IPC float64 `json:"ipc"`
	// ProbMispredicts counts retired mispredictions at problem-branch PCs.
	ProbMispredicts uint64 `json:"probMispredicts"`
	// ProbMispPerK is ProbMispredicts per 1000 problem-branch executions
	// in the same run.
	ProbMispPerK float64 `json:"probMispPerK"`
}

// FigurePredRow compares the prediction stack on one workload (4-wide):
// the YAGS baseline, slice-assisted execution, the value predictor, the
// correlation-mining predictor, and perfect prediction of exactly the
// problem branches.
type FigurePredRow struct {
	Program string `json:"program"`
	// ProbBranches is the number of static problem branches; ProbExecs is
	// their dynamic execution count in the baseline run.
	ProbBranches int    `json:"probBranches"`
	ProbExecs    uint64 `json:"probExecs"`

	Base     FigurePredLeg `json:"base"`
	Slices   FigurePredLeg `json:"slices"`
	Value    FigurePredLeg `json:"value"`
	CorrMine FigurePredLeg `json:"corrMine"`
	Perfect  FigurePredLeg `json:"perfect"`
}

// probLeg folds one run's per-PC statistics over the problem-branch set.
func probLeg(s *stats.Sim, pcs map[uint64]bool) (leg FigurePredLeg, execs uint64) {
	for pc := range pcs {
		if st, ok := s.Static[pc]; ok {
			execs += st.Execs
			leg.ProbMispredicts += st.Mispredicts
		}
	}
	leg.IPC = s.IPC()
	if execs > 0 {
		leg.ProbMispPerK = float64(leg.ProbMispredicts) / float64(execs) * 1000
	}
	return leg, execs
}

// FigurePred runs the comparison through the engine in two parallel
// phases: the 4-wide baselines first (shared with Table 2 and Figure 1 —
// they double as the profiling runs that pick the problem branches), then
// the four alternative legs per workload in one batch.
func (e *Engine) FigurePred(ws []*workloads.Workload) []FigurePredRow {
	baseSpecs := make([]RunSpec, len(ws))
	for i, w := range ws {
		baseSpecs[i] = e.baseSpec(w, cpu.Config4Wide())
	}
	e.mustRunAll(baseSpecs)

	specs := make([]RunSpec, 0, 5*len(ws))
	probPCs := make([]map[uint64]bool, len(ws))
	for i, w := range ws {
		prob, err := e.profileFor(w, cpu.Config4Wide())
		if err != nil {
			panic(err)
		}
		probPCs[i] = prob.BranchPCs

		cfg := cpu.Config4Wide()
		valueCfg := cpu.Config4Wide()
		valueCfg.BPred = "value"
		corrCfg := cpu.Config4Wide()
		corrCfg.BPred = "corrmine"
		perfCfg := cpu.Config4Wide()
		perfCfg.BPred = bpred.PerfectSpec(prob.BranchPCs)
		specs = append(specs,
			e.baseSpec(w, cfg), e.sliceSpec(w, cfg),
			e.baseSpec(w, valueCfg), e.baseSpec(w, corrCfg), e.baseSpec(w, perfCfg))
	}
	res := e.mustRunAll(specs)

	rows := make([]FigurePredRow, 0, len(ws))
	for i, w := range ws {
		pcs := probPCs[i]
		row := FigurePredRow{Program: w.Name, ProbBranches: len(pcs)}
		row.Base, row.ProbExecs = probLeg(res[5*i].Stats(), pcs)
		row.Slices, _ = probLeg(res[5*i+1].Stats(), pcs)
		row.Value, _ = probLeg(res[5*i+2].Stats(), pcs)
		row.CorrMine, _ = probLeg(res[5*i+3].Stats(), pcs)
		row.Perfect, _ = probLeg(res[5*i+4].Stats(), pcs)
		rows = append(rows, row)
	}
	return rows
}
