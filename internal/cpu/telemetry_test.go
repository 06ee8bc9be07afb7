package cpu

import (
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/stats"
)

// TestResetStatsZeroesEverySnapshotCounter is ResetStats' contract:
// after it, every numeric counter of every Snapshot section reads zero.
// stats.Zero walks each counter struct by reflection, so a counter added
// to a struct is covered automatically; a struct ResetStats forgot to
// zero fails here.
func TestResetStatsZeroesEverySnapshotCounter(t *testing.T) {
	w := buildMini(t, 100000) // enough outer iterations to outlast both Run calls
	m := mem.New()
	w.initMem(m)
	core := MustNew(Config4Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))
	core.Run(40000)

	before := core.Snapshot()
	if before.Sim.MainRetired == 0 || before.L1D.Accesses == 0 ||
		before.Bpred.YAGS.Lookups == 0 || before.Corr.Generated == 0 {
		t.Fatalf("warm-up left key counters zero: %+v", before)
	}

	core.ResetStats()
	after := core.Snapshot()
	stats.ForEachCounter(&after, func(path string, v reflect.Value) {
		if !v.IsZero() {
			t.Errorf("counter %s survived ResetStats: %v", path, v.Interface())
		}
	})
	if len(after.Sim.Static) != 0 {
		t.Errorf("per-PC stats survived ResetStats: %d entries", len(after.Sim.Static))
	}

	// Reset clears telemetry only; the machine keeps running.
	core.Run(40000)
	if s := core.Snapshot(); s.Sim.MainRetired == 0 {
		t.Error("core stopped retiring after ResetStats")
	}
}

// TestSnapshotSectionsLive checks that Snapshot exports every live
// counter struct. Under each direction predictor, a run with slices, calls
// and indirect jumps leaves a nonzero counter in every section the
// machine bumps, while the sections of the predictors not in use stay
// zero; a section Snapshot forgot to copy reads zero and fails here. A
// multi-programmed core exports one Progs entry per program.
func TestSnapshotSectionsLive(t *testing.T) {
	w := buildMiniCalls(t, 300, true)
	type section struct {
		name string
		ptr  any
	}
	for _, name := range bpred.DirNames() {
		t.Run(name, func(t *testing.T) {
			cfg := Config4Wide()
			cfg.BPred = name
			m := mem.New()
			w.initMem(m)
			core := MustNew(cfg, w.image, m, w.entry, slicehw.MustTable(w.slices))
			core.Run(20000)
			snap := core.Snapshot()
			if snap.Progs != nil {
				t.Errorf("single-program core exported %d Progs entries", len(snap.Progs))
			}
			live := []section{
				{"Sim", &snap.Sim}, {"Hier", &snap.Hier}, {"L1D", &snap.L1D},
				{"L1I", &snap.L1I}, {"L2", &snap.L2}, {"PVB", &snap.PVB},
				{"Corr", &snap.Corr}, {"RAS", &snap.Bpred.RAS}, {"Indirect", &snap.Bpred.Indirect},
			}
			// The direction sections: the predictor's own is live, the
			// rest stay zero.
			own := reflect.TypeOf(core.dir.Counters()).Elem()
			bp := reflect.ValueOf(&snap.Bpred).Elem()
			for i := 0; i < bp.NumField(); i++ {
				f, v := bp.Type().Field(i), bp.Field(i)
				switch {
				case f.Name == "RAS" || f.Name == "Indirect":
				case f.Type == own:
					live = append(live, section{f.Name, v.Addr().Interface()})
				case !v.IsZero():
					t.Errorf("section %s is not %s's but reads %+v", f.Name, name, v.Interface())
				}
			}
			if got := len(live); got != 10 {
				t.Fatalf("%d live sections, want 10: %s's counters (%s) have no section", got, name, own)
			}
			for _, sec := range live {
				nonzero := false
				stats.ForEachCounter(sec.ptr, func(_ string, v reflect.Value) {
					nonzero = nonzero || !v.IsZero()
				})
				if !nonzero {
					t.Errorf("section %s exported all zero under %s", sec.name, name)
				}
			}
		})
	}

	specs := make([]ProgSpec, 2)
	for i := range specs {
		m := mem.New()
		w.initMem(m)
		specs[i] = ProgSpec{Image: w.image, Mem: m, Entry: w.entry, SliceTable: slicehw.MustTable(w.slices)}
	}
	core, err := NewMulti(Config4Wide(), specs)
	if err != nil {
		t.Fatal(err)
	}
	core.Run(5000)
	snap := core.Snapshot()
	if len(snap.Progs) != len(specs) {
		t.Fatalf("2-program core exported %d Progs entries", len(snap.Progs))
	}
	for i, p := range snap.Progs {
		if p.MainRetired == 0 {
			t.Errorf("Progs[%d] retired nothing", i)
		}
	}
}

// TestTracerReceivesSliceEvents drives the mini slice workload with a
// collecting tracer and checks the event stream covers the prediction
// lifecycle, with correlator events carrying the core's cycle stamp.
func TestTracerReceivesSliceEvents(t *testing.T) {
	w := buildMini(t, 200)
	m := mem.New()
	w.initMem(m)
	core := MustNew(Config4Wide(), w.image, m, w.entry, slicehw.MustTable(w.slices))

	byKind := map[stats.EventKind][]stats.Event{}
	core.SetTracer(stats.FuncTracer(func(e stats.Event) {
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}))
	core.Run(1 << 40)
	if !core.Done() {
		t.Fatal("did not halt")
	}

	for _, kind := range []stats.EventKind{
		stats.EvFork, stats.EvInstance, stats.EvPredAlloc,
		stats.EvPredGenerate, stats.EvPredBind, stats.EvPredKill,
	} {
		if len(byKind[kind]) == 0 {
			t.Errorf("no %q events traced", kind)
		}
	}

	snap := core.Snapshot()
	if got, want := uint64(len(byKind[stats.EvPredGenerate])), snap.Corr.Filled; got != want {
		t.Errorf("%d pred-generate events vs Corr.Filled=%d", got, want)
	}
	if got, want := uint64(len(byKind[stats.EvOverride])), snap.Corr.Overrides; got != want {
		t.Errorf("%d override events vs Corr.Overrides=%d", got, want)
	}

	// Correlator events are stamped with the core clock by the tracer
	// wrapper; cycles must be nonzero and non-decreasing is too strong
	// (events of one cycle interleave), so check they stay in range.
	last := core.Now()
	for _, e := range byKind[stats.EvPredGenerate] {
		if e.Cycle == 0 || e.Cycle > last {
			t.Fatalf("pred-generate event with bad cycle stamp %d (core at %d)", e.Cycle, last)
		}
	}
}
