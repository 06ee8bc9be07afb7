package harness

import "repro/internal/workloads"

// ExportSchema versions the machine-readable experiment document. Bump it
// whenever a field changes meaning or shape, so downstream consumers
// (bench trajectories, plotting scripts) can dispatch on it.
//
// v2: engine block gained warm-checkpoint observability (warmHits,
// warmMisses, restores, diskLoads, diskStores, diskBytes), and simInsts
// stopped double-counting warm regions served from the checkpoint cache.
//
// v3: added figurePred, the predictor-stack comparison (slices vs value
// prediction vs correlation mining vs perfect on the problem branches).
// Purely additive: every v2 field is unchanged, so a v2 reader that
// ignores unknown fields parses v3 documents, and a v3 reader sees an
// empty figurePred in v2 documents.
//
// v4: added figureAuto, the closed-loop automatic slice construction
// comparison (auto-built, oracle-validated slices vs the hand-built
// ones). Purely additive, same compatibility story as v3.
//
// v5: engine block gained the checkpoint store's cross-process
// coordination counters (singleflightWaits, singleflightHits,
// leaseTakeovers, evictions, evictedBytes).
//
// v6: added figureMP, the multi-programmed SMT contention experiment
// (per-co-schedule, per-program IPC with and without slices, slice
// accuracy under contention, and cache-interference deltas). Purely
// additive, same compatibility story as v3/v4/v5.
//
// v7: the five v5 coordination counters are gone with the cross-process
// store coordination they counted. Every other field is unchanged, so a
// v7 reader that ignores unknown fields still parses v2–v6 documents.
const ExportSchema = "specslice-experiments/7"

// Export is the whole evaluation — every table and figure of the paper —
// as one machine-readable document, the JSON counterpart of the formatted
// text tables. Row types are shared with the text formatters, so the two
// outputs cannot drift apart.
type Export struct {
	Schema    string        `json:"schema"`
	Scale     float64       `json:"scale"`
	Workloads []string      `json:"workloads"`
	Table1    string        `json:"table1"` // static machine parameters, preformatted
	Table2    []Table2Row   `json:"table2"`
	Figure1   []Figure1Row  `json:"figure1"`
	Table3    []Table3Row   `json:"table3"`
	Figure11  []Figure11Row `json:"figure11"`
	Table4    []Table4Col   `json:"table4"`
	// FigurePred is the predictor-stack comparison (schema v3).
	FigurePred []FigurePredRow `json:"figurePred"`
	// FigureAuto is the automatic slice-construction comparison (schema v4).
	FigureAuto []FigureAutoRow `json:"figureAuto"`
	// FigureMP is the multi-programmed contention experiment (schema v6).
	FigureMP []FigureMPRow `json:"figureMP"`
	Engine   ExportEngine  `json:"engine"`
}

// ExportEngine summarizes the run that produced the document.
type ExportEngine struct {
	Simulations uint64 `json:"simulations"`
	MemoHits    uint64 `json:"memoHits"`
	SimInsts    uint64 `json:"simInsts"`
	SimWallMS   int64  `json:"simWallMs"`

	// Warm-checkpoint cache observability (schema v2).
	WarmHits   uint64 `json:"warmHits"`
	WarmMisses uint64 `json:"warmMisses"`
	Restores   uint64 `json:"restores"`
	DiskLoads  uint64 `json:"diskLoads"`
	DiskStores uint64 `json:"diskStores"`
	DiskBytes  uint64 `json:"diskBytes"`
}

// Export renders the engine counters as the schema's engine block.
func (st EngineStats) Export() ExportEngine {
	return ExportEngine{
		Simulations: st.Misses,
		MemoHits:    st.Hits,
		SimInsts:    st.SimInsts,
		SimWallMS:   st.SimWall.Milliseconds(),
		WarmHits:    st.Checkpoints.WarmHits,
		WarmMisses:  st.Checkpoints.WarmMisses,
		Restores:    st.Checkpoints.Restores,
		DiskLoads:   st.Checkpoints.DiskLoads,
		DiskStores:  st.Checkpoints.DiskStores,
		DiskBytes:   st.Checkpoints.DiskBytes,
	}
}

// Export runs every experiment for ws on the engine and assembles the
// document. Simulations shared between tables (the 4-wide baselines,
// Figure 11's and Table 4's slice runs) execute once, exactly as in the
// text path.
func (e *Engine) Export(ws []*workloads.Workload) Export {
	doc := Export{
		Schema: ExportSchema,
		Scale:  e.Params.Scale,
		Table1: FormatTable1(),
	}
	for _, w := range ws {
		doc.Workloads = append(doc.Workloads, w.Name)
	}
	doc.Table2 = e.Table2(ws)
	doc.Figure1 = e.Figure1(ws)
	doc.Table3 = Table3(ws)
	doc.Figure11 = e.Figure11(ws)
	doc.Table4 = e.Table4(ws)
	doc.FigurePred = e.FigurePred(ws)
	doc.FigureAuto = e.FigureAuto(ws)
	doc.FigureMP = e.FigureMP(ws)
	doc.Engine = e.Stats().Export()
	return doc
}
