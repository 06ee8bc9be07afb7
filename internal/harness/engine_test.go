package harness

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
)

var update = flag.Bool("update", false, "regenerate golden files")

// TestEngineMemoizesAcrossDrivers locks the tentpole invariant: every
// unique (workload, config, mode, region) simulation executes exactly
// once, even across different drivers. Figure 11 and Table 4 share their
// base and slice runs, so Table 4 on the same engine only adds the
// predictions-off run.
func TestEngineMemoizesAcrossDrivers(t *testing.T) {
	e := NewEngine(small, 4)
	ws := pick(t, "vpr")

	e.Figure11(ws)
	st := e.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("Figure11 alone: misses=%d hits=%d, want 3/0", st.Misses, st.Hits)
	}

	e.Table4(ws)
	st = e.Stats()
	if st.Misses != 4 {
		t.Errorf("Figure11+Table4: %d simulations, want 4 (base and slice runs must be shared)", st.Misses)
	}
	if st.Hits != 2 {
		t.Errorf("Figure11+Table4: %d memo hits, want 2", st.Hits)
	}

	// Re-running a driver must simulate nothing.
	e.Figure11(ws)
	if got := e.Stats().Misses; got != 4 {
		t.Errorf("repeat Figure11 simulated %d new runs", got-4)
	}

	if st := e.Stats(); st.SimInsts == 0 || st.SimWall == 0 {
		t.Error("observability counters not populated")
	}
}

// TestFigure1ProfilesOncePerWidth is the regression test for the serial
// driver's duplicated profiling baseline: the profile input and the
// baseline bar are the same simulation and must run exactly once per
// (workload, width). 6 unique runs per workload: 2 baselines, 2
// problem-perfect, 2 all-perfect.
func TestFigure1ProfilesOncePerWidth(t *testing.T) {
	e := NewEngine(small, 4)
	ws := pick(t, "vpr")

	e.Figure1(ws)
	st := e.Stats()
	if st.Misses != 6 {
		t.Errorf("Figure1 ran %d simulations per workload, want 6", st.Misses)
	}
	// The profiling baseline is recalled from the memo, not re-run.
	if st.Hits != 2 {
		t.Errorf("Figure1 memo hits = %d, want 2 (one profile recall per width)", st.Hits)
	}

	// Table 2 afterwards reuses the 4-wide baseline and its profile.
	e.Table2(ws)
	if got := e.Stats().Misses; got != 6 {
		t.Errorf("Table2 after Figure1 simulated %d extra runs, want 0", got-6)
	}
}

// TestEngineDeterministicAcrossJobs runs the same driver serially and
// with a parallel pool and requires identical rows — scheduling must not
// leak into results.
func TestEngineDeterministicAcrossJobs(t *testing.T) {
	ws := pick(t, "vpr")
	serial := NewEngine(small, 1).Table2(ws)
	parallel := NewEngine(small, 4).Table2(ws)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs: serial %+v parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestFigureMPDeterministicAcrossJobs pins the shared fan-out on the
// co-scheduled legs: the rows do not depend on the pool size, and the
// engine counts each solo baseline and each co-scheduled leg as one
// simulation.
func TestFigureMPDeterministicAcrossJobs(t *testing.T) {
	ws := pick(t, "crafty", "eon", "vortex")
	groups := CoSchedules(ws)
	var rows [2][]FigureMPRow
	for i, jobs := range []int{1, 4} {
		e := NewEngine(small, jobs)
		rows[i] = e.FigureMP(ws)
		if got, want := e.Stats().Misses, uint64(len(ws)+2*len(groups)); got != want {
			t.Errorf("jobs=%d: %d simulations, want %d (one per solo baseline, two per co-schedule)", jobs, got, want)
		}
	}
	if len(rows[0]) != len(groups) {
		t.Fatalf("%d rows, want one per co-schedule (%d)", len(rows[0]), len(groups))
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("rows differ across pool sizes:\njobs=1 %+v\njobs=4 %+v", rows[0], rows[1])
	}
}

// TestEngineProgressEvents checks the run-level observability wiring:
// every request emits exactly one event, misses carry wall time and
// instruction counts, hits are flagged memoized.
func TestEngineProgressEvents(t *testing.T) {
	e := NewEngine(small, 2)
	var mu sync.Mutex
	var events []Event
	e.Progress = func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	ws := pick(t, "vpr")
	e.Figure11(ws)
	e.Figure11(ws)

	var hits, misses int
	for _, ev := range events {
		if ev.Memoized {
			hits++
			continue
		}
		misses++
		if ev.Insts == 0 || ev.Wall <= 0 {
			t.Errorf("miss event lacks wall/insts: %+v", ev)
		}
		if ev.Spec.Workload != "vpr" {
			t.Errorf("event for wrong workload %q", ev.Spec.Workload)
		}
	}
	if misses != 3 || hits != 3 {
		t.Errorf("events: %d misses, %d hits, want 3/3", misses, hits)
	}
}

func TestEngineUnknownWorkload(t *testing.T) {
	e := NewEngine(small, 1)
	if _, err := e.Run(RunSpec{Workload: "nope", Cfg: cpu.Config4Wide(), Warm: 1, Run: 1}); err == nil {
		t.Fatal("want error for unknown workload")
	}
	// A second request for the same bad spec must not hang on the memo
	// entry the failed run left behind.
	if _, err := e.Run(RunSpec{Workload: "nope", Cfg: cpu.Config4Wide(), Warm: 1, Run: 1}); err != nil {
		t.Logf("second request errored as expected: %v", err)
	}
}

// TestRunSpecKey locks key hygiene: mode and region changes must change
// the key; perfect-set insertion order must not.
func TestRunSpecKey(t *testing.T) {
	base := RunSpec{Workload: "vpr", Cfg: cpu.Config4Wide(), Warm: 100, Run: 200}
	variants := []RunSpec{
		{Workload: "gzip", Cfg: cpu.Config4Wide(), Warm: 100, Run: 200},
		{Workload: "vpr", Cfg: cpu.Config8Wide(), Warm: 100, Run: 200},
		{Workload: "vpr", Cfg: cpu.Config4Wide(), WithSlices: true, Warm: 100, Run: 200},
		{Workload: "vpr", Cfg: cpu.Config4Wide(), Warm: 101, Run: 200},
		{Workload: "vpr", Cfg: cpu.Config4Wide(), Warm: 100, Run: 201},
	}
	seen := map[string]bool{base.Key(): true}
	for _, v := range variants {
		if seen[v.Key()] {
			t.Errorf("spec %+v collides with an earlier key", v)
		}
		seen[v.Key()] = true
	}
	if base.Key() != base.Key() {
		t.Error("key not stable")
	}
}

// TestRunSpecSliceSetChecks: a spec's slice set is named in its key, and
// simulate refuses a set next to WithSlices, a set missing any part, and
// a set built for another workload, before simulating anything.
func TestRunSpecSliceSetChecks(t *testing.T) {
	w := pick(t, "vpr")[0]
	good := &SliceSet{Name: "hand:vpr", Workload: "vpr", Image: w.Image, Table: w.SliceTable()}
	spec := RunSpec{Workload: "vpr", Cfg: cpu.Config4Wide(), Warm: 100, Run: 200, Set: good}
	if k := spec.Key(); !strings.Contains(k, "|run=200|set=hand:vpr|") {
		t.Errorf("key %q does not name the set after the region", k)
	}

	bad := map[string]func(s *RunSpec){
		"with slices": func(s *RunSpec) { s.WithSlices = true },
		"no name":     func(s *RunSpec) { s.Set.Name = "" },
		"no workload": func(s *RunSpec) { s.Set.Workload = "" },
		"no image":    func(s *RunSpec) { s.Set.Image = nil },
		"no table":    func(s *RunSpec) { s.Set.Table = nil },
		"other workload": func(s *RunSpec) {
			s.Workload = "gzip"
		},
	}
	e := NewEngine(small, 1)
	for name, mutate := range bad {
		s := spec
		set := *good
		s.Set = &set
		mutate(&s)
		if _, err := e.Run(s); err == nil {
			t.Errorf("%s: spec accepted", name)
		}
	}
	if st := e.Stats(); st.SimInsts != 0 || st.Misses != 0 || st.Hits != 0 {
		t.Errorf("refused specs reached the memo: %d simulations, %d hits, %d instructions",
			st.Misses, st.Hits, st.SimInsts)
	}
	// The same engine: the refused specs without an image or a table share
	// the valid spec's key, so a memo that cached their errors would refuse
	// it too.
	if _, err := e.Run(spec); err != nil {
		t.Errorf("valid set refused after refused specs of the same key: %v", err)
	}
}

// --- golden output ---

// The golden files under testdata were generated by the pre-engine serial
// drivers (one RunOnce per table cell, in row order). The engine rewrite
// must reproduce them byte for byte: memoization and parallel scheduling
// may change only wall time, never output. Regenerate with -update after
// an intentional simulator change.
func TestGoldenOutputIdenticalToSerialPath(t *testing.T) {
	ws := pick(t, "vpr", "gzip", "mcf")
	e := NewEngine(Params{Scale: 0.15}, 4)
	got := map[string]string{
		"table2.golden":  FormatTable2(e.Table2(ws)),
		"figure1.golden": FormatFigure1(e.Figure1(ws)),
	}
	for name, text := range got {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if string(want) != text {
			t.Errorf("%s: engine output diverges from the serial path\n--- want ---\n%s\n--- got ---\n%s",
				name, want, text)
		}
	}
}

// --- NaN/Inf rendering regressions ---

func TestBarRejectsNonFinite(t *testing.T) {
	cases := []struct{ v, max float64 }{
		{math.NaN(), 10},
		{math.Inf(1), 10},
		{math.Inf(-1), 10},
		{1, math.NaN()},
		{1, math.Inf(1)},
		{1, 0},
		{1, -3},
	}
	for _, c := range cases {
		if got := bar(c.v, c.max, 30); got != "" {
			t.Errorf("bar(%v, %v) = %q, want empty", c.v, c.max, got)
		}
	}
	if got := bar(5, 10, 30); got != strings.Repeat("#", 15) {
		t.Errorf("bar(5, 10, 30) = %q", got)
	}
}

func TestFormattersGuardNonFiniteIPC(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	f1 := FormatFigure1([]Figure1Row{{
		Program: "dead", Base: [2]float64{nan, 0}, ProbPerf: [2]float64{inf, 0}, AllPerf: [2]float64{nan, inf},
	}})
	f11 := FormatFigure11([]Figure11Row{{
		Program: "dead", BaseIPC: nan, SliceSpeedup: inf, LimitSpeedup: math.Inf(-1),
	}})
	t4 := FormatTable4([]Table4Col{{
		Program: "dead", MispRemovedPct: nan, LatePct: inf, MissReductionPct: nan,
		SpeedupPct: inf, FracFromLoads: nan,
	}})
	for name, text := range map[string]string{"figure1": f1, "figure11": f11, "table4": t4} {
		for _, garbage := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
			if strings.Contains(text, garbage) {
				t.Errorf("%s renders %s:\n%s", name, garbage, text)
			}
		}
		if !strings.Contains(text, "n/a") {
			t.Errorf("%s: expected n/a placeholders:\n%s", name, text)
		}
	}
}

// TestSpeedupPctDegenerate locks the zero-cycle guards.
func TestSpeedupPctDegenerate(t *testing.T) {
	if got := speedupPct(100, 0); got != 0 {
		t.Errorf("speedupPct(100, 0) = %v", got)
	}
	if got := speedupPct(0, 100); got != 0 {
		t.Errorf("speedupPct(0, 100) = %v", got)
	}
	if got := speedupPct(150, 100); math.Abs(got-50) > 1e-9 {
		t.Errorf("speedupPct(150, 100) = %v, want 50", got)
	}
}
