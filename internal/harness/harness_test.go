package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// small keeps harness tests fast: tiny regions on a few workloads.
var small = Params{Scale: 0.15}

func pick(t *testing.T, names ...string) []*workloads.Workload {
	t.Helper()
	var ws []*workloads.Workload
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

func TestTable2ShapeHolds(t *testing.T) {
	rows := NewEngine(small, 0).Table2(pick(t, "vpr", "gzip"))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The defining property: few static instructions cover most PDEs.
		if r.BrSI == 0 || r.BrSI > 30 {
			t.Errorf("%s: BrSI = %d", r.Program, r.BrSI)
		}
		if r.BrMis < 40 {
			t.Errorf("%s: branch coverage %.0f%%", r.Program, r.BrMis)
		}
		if r.MemSI == 0 || r.MisPct < 40 {
			t.Errorf("%s: mem coverage %d SIs, %.0f%%", r.Program, r.MemSI, r.MisPct)
		}
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "vpr") || !strings.Contains(text, "program") {
		t.Errorf("format:\n%s", text)
	}
}

func TestFigure1Ordering(t *testing.T) {
	rows := NewEngine(small, 0).Figure1(pick(t, "vpr"))
	r := rows[0]
	for i := 0; i < 2; i++ {
		if !(r.AllPerf[i] >= r.ProbPerf[i] && r.ProbPerf[i] >= r.Base[i]*0.98) {
			t.Errorf("width %d: ordering base %.2f ≤ prob %.2f ≤ perfect %.2f violated",
				i, r.Base[i], r.ProbPerf[i], r.AllPerf[i])
		}
	}
	// The 8-wide machine must not be slower than the 4-wide one.
	if r.AllPerf[1] < r.AllPerf[0]*0.95 {
		t.Errorf("8-wide perfect IPC %.2f below 4-wide %.2f", r.AllPerf[1], r.AllPerf[0])
	}
	if !strings.Contains(FormatFigure1(rows), "prob.perfect") {
		t.Error("format missing columns")
	}
}

func TestTable3MatchesSliceMetadata(t *testing.T) {
	ws := workloads.All()
	rows := Table3(ws)
	var nSlices int
	for _, w := range ws {
		nSlices += len(w.Slices)
	}
	if len(rows) != nSlices {
		t.Fatalf("rows = %d, slices = %d", len(rows), nSlices)
	}
	for _, r := range rows {
		if r.Static == 0 {
			t.Errorf("%s: zero static size", r.Slice)
		}
		if r.LiveIns == 0 || r.LiveIns > 4 {
			t.Errorf("%s: %d live-ins", r.Slice, r.LiveIns)
		}
		// Slices are small: "typically fewer instructions than 4 times
		// the number of problem instructions covered" — ours stay ≤ 32.
		if r.Static > 32 {
			t.Errorf("%s: %d static instructions", r.Slice, r.Static)
		}
	}
	if !strings.Contains(FormatTable3(rows), "max iter") {
		t.Error("format missing header")
	}
}

func TestFigure11Shape(t *testing.T) {
	rows := NewEngine(Params{Scale: 0.3}, 0).Figure11(pick(t, "vpr", "eon", "parser"))
	byName := map[string]Figure11Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	// The benchmarks the paper speeds up must speed up; parser must not.
	for _, n := range []string{"vpr", "eon"} {
		if byName[n].SliceSpeedup < 1 {
			t.Errorf("%s: slice speedup %.1f%%", n, byName[n].SliceSpeedup)
		}
		if byName[n].LimitSpeedup < 1 {
			t.Errorf("%s: limit speedup %.1f%%", n, byName[n].LimitSpeedup)
		}
	}
	if p := byName["parser"]; p.SliceSpeedup > 5 || p.SliceSpeedup < -6 {
		t.Errorf("parser: slice speedup %.1f%%, want ≈0", p.SliceSpeedup)
	}
	if !strings.Contains(FormatFigure11(rows), "limit") {
		t.Error("format missing limit rows")
	}
}

func TestTable4Consistency(t *testing.T) {
	cols := NewEngine(Params{Scale: 0.3}, 0).Table4(pick(t, "vpr"))
	c := cols[0]
	if c.Forks == 0 {
		t.Error("no forks recorded")
	}
	if c.SliceInstsFetched < c.SliceInstsRetired {
		t.Errorf("fetched %d < retired %d", c.SliceInstsFetched, c.SliceInstsRetired)
	}
	if c.BranchesCovered == 0 || c.LoadsCovered == 0 {
		t.Error("coverage metadata empty")
	}
	if c.LatePct < 0 || c.LatePct > 100 {
		t.Errorf("late%% = %.1f", c.LatePct)
	}
	if c.FracFromLoads < 0 || c.FracFromLoads > 1 {
		t.Errorf("frac from loads = %.2f", c.FracFromLoads)
	}
	if c.SpeedupPct < 0 {
		t.Errorf("vpr speedup %.1f%%", c.SpeedupPct)
	}
	text := FormatTable4(cols)
	if !strings.Contains(text, "Fork points") || !strings.Contains(text, "vpr") {
		t.Errorf("format:\n%s", text)
	}
}

func TestFormatTable1(t *testing.T) {
	text := FormatTable1()
	for _, want := range []string{"YAGS", "64-entry", "2MB", "ICOUNT"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 text missing %q", want)
		}
	}
}

func TestParamsRegions(t *testing.T) {
	w, _ := workloads.ByName("vpr")
	warm, run := Params{}.regions(w)
	if warm != w.SuggestedWarmup || run != w.SuggestedRun {
		t.Errorf("default regions = %d/%d", warm, run)
	}
	warm, run = Params{Scale: 0.001}.regions(w)
	if warm < 10_000 || run < 20_000 {
		t.Errorf("floors not applied: %d/%d", warm, run)
	}
}

// TestRunOnceTracerOnlyObserves: a tracer attached through RunOnce sees
// the restored core's measured region — forks and the prediction
// lifecycle included — without changing a single counter of it.
func TestRunOnceTracerOnlyObserves(t *testing.T) {
	w := pick(t, "vpr")[0]
	cfg := cpu.Config4Wide()
	warm, run := small.regions(w)
	cp := NewCheckpointer("", WarmDetailed)

	plain, _, err := RunOnce(cp, w, cfg, true, warm, run, OracleOptions{}, nil, nil)
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	seen := map[stats.EventKind]int{}
	tr := stats.FuncTracer(func(ev stats.Event) { seen[ev.Kind]++ })
	traced, src, err := RunOnce(cp, w, cfg, true, warm, run, OracleOptions{}, nil, tr)
	if err != nil {
		t.Fatalf("RunOnce with tracer: %v", err)
	}
	if src != WarmFromMemo {
		t.Errorf("traced run warmed from %s, want a restore of the shared checkpoint", src)
	}
	if a, b := plain.Snapshot(), traced.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("tracing changed the measured snapshot:\n plain  %+v\n traced %+v", a.Sim, b.Sim)
	}
	for _, k := range []stats.EventKind{stats.EvFork, stats.EvPredAlloc, stats.EvPredGenerate, stats.EvPredBind} {
		if seen[k] == 0 {
			t.Errorf("tracer received no %q events (saw %v)", k, seen)
		}
	}
}
