package harness

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/cpu"
)

// TestFigurePredPerfectLegRemovesProblemMispredicts locks the figure's
// anchor: the perfect leg primes the actual outcome for exactly the
// problem branches, so its problem-subset misprediction count must be
// zero while the baseline's is not.
func TestFigurePredPerfectLegRemovesProblemMispredicts(t *testing.T) {
	ws := pick(t, "vpr", "mcf")
	e := NewEngine(small, 4)
	rows := e.FigurePred(ws)
	if len(rows) != len(ws) {
		t.Fatalf("got %d rows, want %d", len(rows), len(ws))
	}
	for i, r := range rows {
		if r.Program != ws[i].Name {
			t.Errorf("row %d is %q, want %q", i, r.Program, ws[i].Name)
		}
		if r.ProbBranches == 0 || r.ProbExecs == 0 {
			t.Errorf("%s: no problem branches profiled (SI=%d execs=%d)", r.Program, r.ProbBranches, r.ProbExecs)
			continue
		}
		if r.Base.ProbMispredicts == 0 {
			t.Errorf("%s: baseline has zero problem mispredicts — the comparison is vacuous", r.Program)
		}
		if r.Perfect.ProbMispredicts != 0 {
			t.Errorf("%s: perfect leg left %d problem mispredicts", r.Program, r.Perfect.ProbMispredicts)
		}
		for leg, l := range map[string]FigurePredLeg{
			"base": r.Base, "slices": r.Slices, "value": r.Value,
			"corrmine": r.CorrMine, "perfect": r.Perfect,
		} {
			if l.IPC <= 0 {
				t.Errorf("%s/%s: IPC = %v", r.Program, leg, l.IPC)
			}
		}
	}
}

// TestPredictorChoiceNeverSharesWarmCheckpoints: the predictor spec is
// part of the warm identity, so configs differing only there must warm
// separately — while the empty spec and the spelled-out default still
// share.
func TestPredictorChoiceNeverSharesWarmCheckpoints(t *testing.T) {
	cfgA := cpu.Config4Wide()
	cfgB := cpu.Config4Wide()
	cfgB.BPred = "bimodal"
	keyA := WarmKeyFor("vpr", false, 20_000, WarmDetailed, cfgA)
	keyB := WarmKeyFor("vpr", false, 20_000, WarmDetailed, cfgB)
	if keyA == keyB {
		t.Fatal("configs differing only in predictor share a warm key")
	}

	cp := NewCheckpointer("", WarmDetailed)
	measureVia(t, cp, "vpr", cfgA, false, 20_000, 20_000)
	measureVia(t, cp, "vpr", cfgB, false, 20_000, 20_000)
	if st := cp.Stats(); st.WarmMisses != 2 || st.WarmHits != 0 {
		t.Errorf("distinct predictors: warm misses=%d hits=%d, want 2/0", st.WarmMisses, st.WarmHits)
	}

	cfgC := cpu.Config4Wide()
	cfgC.BPred = "yags"
	measureVia(t, cp, "vpr", cfgC, false, 20_000, 20_000)
	if st := cp.Stats(); st.WarmMisses != 2 || st.WarmHits != 1 {
		t.Errorf("spelled-out default: warm misses=%d hits=%d, want 2/1", st.WarmMisses, st.WarmHits)
	}
}

// TestOracleEveryPredictor: the differential oracle must stay clean with
// every registered direction predictor selected — a predictor that leaks
// state onto the wrong path or mistrains at retire diverges here.
func TestOracleEveryPredictor(t *testing.T) {
	w := pick(t, "vpr")[0]
	for _, name := range bpred.DirNames() {
		cfg := cpu.Config4Wide()
		cfg.BPred = name
		cp := NewCheckpointer("", WarmDetailed)
		if _, _, err := RunOnce(cp, w, cfg, false, 10_000, 20_000, OracleOptions{Enabled: true}, nil, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
